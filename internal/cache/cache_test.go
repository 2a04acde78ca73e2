package cache_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"datavirt/internal/cache"
	"datavirt/internal/cache/cachetest"
)

// readAll pulls [off, off+n) through a fresh reader.
func readAll(t *testing.T, c *cache.Cache, path string, off int64, n int) []byte {
	t.Helper()
	r, err := c.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	buf := make([]byte, n)
	if _, err := r.ReadAt(buf, off); err != nil {
		t.Fatalf("ReadAt(%d, %d): %v", off, n, err)
	}
	return buf
}

func TestReadThroughMatchesFile(t *testing.T) {
	fs := cachetest.NewFS()
	want := fs.Put("a", 10_000, 1)
	c := cache.New(cache.Config{BlockBytes: 64, MaxBytes: 1 << 20, OpenFile: fs.Open})
	defer c.Close()

	r, err := c.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		off := rng.Int63n(10_000)
		n := 1 + rng.Intn(700)
		if off+int64(n) > 10_000 {
			n = int(10_000 - off)
		}
		buf := make([]byte, n)
		if _, err := r.ReadAt(buf, off); err != nil {
			t.Fatalf("ReadAt(%d,%d): %v", off, n, err)
		}
		if !bytes.Equal(buf, want[off:off+int64(n)]) {
			t.Fatalf("ReadAt(%d,%d): bytes differ", off, n)
		}
	}
	ctr := r.Counters()
	if ctr.Hits == 0 || ctr.Misses == 0 {
		t.Errorf("expected both hits and misses over random reads: %+v", ctr)
	}
	if ctr.BytesServed == 0 {
		t.Errorf("BytesServed not counted: %+v", ctr)
	}
}

func TestReadAtEOFSemantics(t *testing.T) {
	fs := cachetest.NewFS()
	want := fs.Put("a", 100, 3)
	c := cache.New(cache.Config{BlockBytes: 64, OpenFile: fs.Open})
	defer c.Close()
	r, err := c.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()

	// Exact read to the end: full count, no error (io.ReaderAt allows
	// either; we promise nil like bytes.Reader at an exact boundary via
	// the non-final-block path — accept both).
	buf := make([]byte, 40)
	n, err := r.ReadAt(buf, 60)
	if n != 40 || (err != nil && err != io.EOF) {
		t.Errorf("exact-end read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf, want[60:]) {
		t.Error("exact-end read: wrong bytes")
	}
	// Read spanning the end: short count + io.EOF.
	buf = make([]byte, 40)
	n, err = r.ReadAt(buf, 80)
	if n != 20 || err != io.EOF {
		t.Errorf("spanning read: n=%d err=%v, want 20, EOF", n, err)
	}
	if !bytes.Equal(buf[:20], want[80:]) {
		t.Error("spanning read: wrong bytes")
	}
	// Read entirely past the end.
	n, err = r.ReadAt(buf, 200)
	if n != 0 || err != io.EOF {
		t.Errorf("past-end read: n=%d err=%v, want 0, EOF", n, err)
	}
}

// TestSingleFlight proves N concurrent callers for the same cold block
// trigger exactly one underlying read.
func TestSingleFlight(t *testing.T) {
	fs := cachetest.NewFS()
	want := fs.Put("a", 4096, 4)
	fs.SetReadDelay(20 * time.Millisecond)
	c := cache.New(cache.Config{BlockBytes: 4096, OpenFile: fs.Open})
	defer c.Close()

	const callers = 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := c.Open("a")
			if err != nil {
				errs <- err
				return
			}
			defer r.Release()
			buf := make([]byte, 4096)
			if _, err := r.ReadAt(buf, 0); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(buf, want) {
				errs <- fmt.Errorf("wrong bytes")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := fs.Reads.Load(); got != 1 {
		t.Errorf("underlying reads = %d, want 1 (single-flight)", got)
	}
	st := c.Stats()
	if st.Hits+st.Misses != callers {
		t.Errorf("lookups = %d, want %d", st.Hits+st.Misses, callers)
	}
	if st.BytesRead != 4096 {
		t.Errorf("BytesRead = %d, want 4096", st.BytesRead)
	}
}

func TestEvictionRespectsByteBudget(t *testing.T) {
	fs := cachetest.NewFS()
	fs.Put("a", 1<<20, 5)
	// 4 KiB budget over one shard of 1 KiB blocks → at most ~4 resident.
	c := cache.New(cache.Config{BlockBytes: 1024, MaxBytes: 4096, Shards: 1, OpenFile: fs.Open})
	defer c.Close()
	r, err := c.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	buf := make([]byte, 1024)
	for off := int64(0); off < 1<<20; off += 1024 {
		if _, err := r.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Bytes > 4096 {
		t.Errorf("resident bytes %d exceed budget 4096", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Error("no evictions under a full scan 256x the budget")
	}
	// LRU: re-reading the last block is a hit, the first a miss.
	before := c.Stats()
	r.ReadAt(buf, 1<<20-1024) //nolint:errcheck
	r.ReadAt(buf, 0)          //nolint:errcheck
	after := c.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses+1 {
		t.Errorf("LRU recency not honoured: before %+v after %+v", before, after)
	}
}

func TestHandleLRUBoundsOpenFiles(t *testing.T) {
	fs := cachetest.NewFS()
	for i := 0; i < 10; i++ {
		fs.Put(fmt.Sprintf("f%d", i), 512, int64(i))
	}
	c := cache.New(cache.Config{MaxHandles: 4, BlockBytes: 256, OpenFile: fs.Open})
	// Sweep all ten files once, then re-touch the four most recent —
	// those must be served from the pool without reopening.
	for i := 0; i < 10; i++ {
		readAll(t, c, fmt.Sprintf("f%d", i), 0, 256)
	}
	for i := 6; i < 10; i++ {
		readAll(t, c, fmt.Sprintf("f%d", i), 0, 256)
	}
	// No reader is live, so opens minus closes is the resident pool.
	if got := fs.Opens.Load() - fs.Closes.Load(); got > 4 {
		t.Errorf("resident handles = %d, want <= 4", got)
	}
	st := c.Stats()
	if st.HandleEvicts == 0 {
		t.Error("no handle evictions with 10 files over a 4-handle budget")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.Opens.Load() != fs.Closes.Load() {
		t.Errorf("fd leak: %d opens, %d closes", fs.Opens.Load(), fs.Closes.Load())
	}
	// The re-touched files were resident: 10 opens for 14 acquires.
	if fs.Opens.Load() != 10 {
		t.Errorf("opens = %d, want 10 (4 acquires served from the pool)", fs.Opens.Load())
	}
}

// TestHandleEvictedWhileReferenced pins a handle with a live reader,
// forces its eviction, and checks the reader keeps working and the
// file is closed exactly once — on the final release.
func TestHandleEvictedWhileReferenced(t *testing.T) {
	fs := cachetest.NewFS()
	want := fs.Put("pinned", 512, 42)
	for i := 0; i < 4; i++ {
		fs.Put(fmt.Sprintf("f%d", i), 512, int64(i))
	}
	c := cache.New(cache.Config{MaxHandles: 2, BlockBytes: 128, OpenFile: fs.Open})
	defer c.Close()

	r, err := c.Open("pinned")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // evict "pinned" from the pool
		readAll(t, c, fmt.Sprintf("f%d", i), 0, 128)
	}
	buf := make([]byte, 128)
	if _, err := r.ReadAt(buf, 256); err != nil {
		t.Fatalf("read through evicted handle: %v", err)
	}
	if !bytes.Equal(buf, want[256:384]) {
		t.Error("read through evicted handle: wrong bytes")
	}
	r.Release()
	r.Release() // idempotent
	if fs.Closes.Load() == 0 {
		t.Error("evicted handle never closed after release")
	}
}

// TestConcurrentStorm hammers a tiny cache from many goroutines under
// -race: hits, misses, evictions, handle churn and single-flight all
// interleave. Correctness of every byte is asserted.
func TestConcurrentStorm(t *testing.T) {
	fs := cachetest.NewFS()
	const files, fileSize = 6, 64 * 1024
	contents := make([][]byte, files)
	for i := range contents {
		contents[i] = fs.Put(fmt.Sprintf("f%d", i), fileSize, int64(100+i))
	}
	c := cache.New(cache.Config{
		BlockBytes: 512, MaxBytes: 16 << 10, MaxHandles: 3,
		Shards: 4, OpenFile: fs.Open,
	})

	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				fi := rng.Intn(files)
				path := fmt.Sprintf("f%d", fi)
				r, err := c.Open(path)
				if err != nil {
					errs <- err
					return
				}
				off := rng.Int63n(fileSize - 600)
				n := 1 + rng.Intn(600)
				buf := make([]byte, n)
				if _, err := r.ReadAt(buf, off); err != nil {
					r.Release()
					errs <- fmt.Errorf("%s @%d+%d: %w", path, off, n, err)
					return
				}
				if !bytes.Equal(buf, contents[fi][off:off+int64(n)]) {
					r.Release()
					errs <- fmt.Errorf("%s @%d+%d: corrupt bytes", path, off, n)
					return
				}
				r.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Evictions == 0 {
		t.Errorf("storm did not exercise the cache: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Every opened file must be closed after Close.
	if fs.Opens.Load() != fs.Closes.Load() {
		t.Errorf("fd leak after Close: %d opens, %d closes", fs.Opens.Load(), fs.Closes.Load())
	}
}

// TestCloseLeavesNoGoroutines drives a sequential scan and checks the
// cache owns no goroutine once closed — the goroutine-hygiene style of
// internal/cluster/cancel_test.go.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	fs := cachetest.NewFS()
	fs.Put("a", 1<<20, 7)
	before := runtime.NumGoroutine()
	c := cache.New(cache.Config{BlockBytes: 4096, OpenFile: fs.Open})
	r, err := c.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for off := int64(0); off < 64*4096; off += 4096 {
		r.ReadAt(buf, off) //nolint:errcheck
	}
	r.Release()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after Close", before, g)
	}
	if fs.Opens.Load() != fs.Closes.Load() {
		t.Errorf("fd leak after Close: %d opens, %d closes", fs.Opens.Load(), fs.Closes.Load())
	}
}

func TestDisabledModePoolsHandlesAndCounts(t *testing.T) {
	fs := cachetest.NewFS()
	want := fs.Put("a", 8192, 9)
	c := cache.New(cache.Config{Disabled: true, OpenFile: fs.Open})
	for i := 0; i < 5; i++ {
		got := readAll(t, c, "a", 128, 1024)
		if !bytes.Equal(got, want[128:128+1024]) {
			t.Fatal("disabled mode: wrong bytes")
		}
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Blocks != 0 {
		t.Errorf("disabled mode cached blocks: %+v", st)
	}
	if st.BytesRead != 5*1024 || st.BytesServed != 5*1024 {
		t.Errorf("disabled mode byte counters: %+v", st)
	}
	if fs.Opens.Load() != 1 {
		t.Errorf("disabled mode reopened the file: %d opens for 5 readers", fs.Opens.Load())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.Closes.Load() != 1 {
		t.Errorf("closes = %d, want 1", fs.Closes.Load())
	}
}

func TestOpenMissingFile(t *testing.T) {
	c := cache.New(cache.Config{})
	defer c.Close()
	if _, err := c.Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("Open of a missing file succeeded")
	}
}

// TestRealFiles exercises the default os.Open path end to end.
func TestRealFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data")
	want := make([]byte, 100_000)
	rand.New(rand.NewSource(10)).Read(want)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	c := cache.New(cache.Config{BlockBytes: 1 << 12})
	defer c.Close()
	for i := 0; i < 2; i++ {
		got := readAll(t, c, path, 4000, 50_000)
		if !bytes.Equal(got, want[4000:54_000]) {
			t.Fatal("real-file read mismatch")
		}
	}
	st := c.Stats()
	if st.Hits == 0 {
		t.Errorf("second pass did not hit: %+v", st)
	}
	if st.BytesSaved() == 0 {
		t.Errorf("BytesSaved = 0: %+v", st)
	}
}

func TestStatsSnapshotConsistency(t *testing.T) {
	fs := cachetest.NewFS()
	fs.Put("a", 4096, 11)
	c := cache.New(cache.Config{BlockBytes: 1024, OpenFile: fs.Open})
	defer c.Close()
	readAll(t, c, "a", 0, 4096)
	st := c.Stats()
	if st.Misses != 4 || st.Blocks != 4 || st.Bytes != 4096 {
		t.Errorf("cold pass stats: %+v", st)
	}
	readAll(t, c, "a", 0, 4096)
	st = c.Stats()
	if st.Hits != 4 || st.BytesRead != 4096 || st.BytesServed != 8192 {
		t.Errorf("warm pass stats: %+v", st)
	}
	if st.BytesSaved() != 4096 {
		t.Errorf("BytesSaved = %d, want 4096", st.BytesSaved())
	}
}

// TestOpenFaultSurfaces arms an injected open failure and checks it
// reaches the caller once, then clears.
func TestOpenFaultSurfaces(t *testing.T) {
	fs := cachetest.NewFS()
	want := fs.Put("a", 1024, 20)
	c := cache.New(cache.Config{BlockBytes: 256, OpenFile: fs.Open})
	defer c.Close()

	fs.FailNextOpens(1)
	if _, err := c.Open("a"); !errors.Is(err, cachetest.ErrOpen) {
		t.Fatalf("Open with injected fault: err=%v, want ErrOpen", err)
	}
	got := readAll(t, c, "a", 0, 1024)
	if !bytes.Equal(got, want) {
		t.Error("read after open fault: wrong bytes")
	}
}

// TestReadFaultNotCached injects an I/O error on the first physical
// read, checks the error surfaces (wrapped, errors.Is-able), and that
// the failed block is NOT cached — the retry re-reads and succeeds.
func TestReadFaultNotCached(t *testing.T) {
	fs := cachetest.NewFS()
	want := fs.Put("a", 4096, 21)
	c := cache.New(cache.Config{BlockBytes: 1024, OpenFile: fs.Open})
	defer c.Close()
	r, err := c.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()

	fs.FailReadNumber(1)
	buf := make([]byte, 1024)
	if _, err := r.ReadAt(buf, 0); !errors.Is(err, cachetest.ErrIO) {
		t.Fatalf("faulted read: err=%v, want ErrIO", err)
	}
	st := c.Stats()
	if st.Blocks != 0 {
		t.Errorf("failed block was cached: %+v", st)
	}
	// The fault is spent (read #1 is past); the retry must succeed.
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatalf("retry after fault: %v", err)
	}
	if !bytes.Equal(buf, want[:1024]) {
		t.Error("retry after fault: wrong bytes")
	}
	if got := fs.Reads.Load(); got != 2 {
		t.Errorf("physical reads = %d, want 2 (fault + retry)", got)
	}
}

// TestShortReadSurfacesCleanError makes the file deliver fewer bytes
// than asked (a lazy io.ReaderAt shape that is only legal at EOF). The
// cache must not serve the missing range as data: the read returns the
// delivered prefix and an error, never wrong bytes.
func TestShortReadSurfacesCleanError(t *testing.T) {
	fs := cachetest.NewFS()
	want := fs.Put("a", 4096, 22)
	c := cache.New(cache.Config{BlockBytes: 64, OpenFile: fs.Open})
	defer c.Close()
	r, err := c.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()

	fs.LimitReadBytes(16)
	buf := make([]byte, 64)
	n, err := r.ReadAt(buf, 0)
	if err == nil {
		t.Fatalf("read over a truncated block returned n=%d with no error", n)
	}
	if !bytes.Equal(buf[:n], want[:n]) {
		t.Errorf("truncated block served wrong bytes in its prefix")
	}
	// With the fault cleared, fresh blocks load whole again.
	fs.LimitReadBytes(0)
	got := readAll(t, c, "a", 1024, 512)
	if !bytes.Equal(got, want[1024:1536]) {
		t.Error("read after clearing short-read fault: wrong bytes")
	}
}
