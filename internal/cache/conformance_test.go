package cache_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"datavirt/internal/cache"
	"datavirt/internal/cache/cachetest"
)

// The conformance suite: every workload below runs through the default
// os.Open path over real files and asserts every byte served matches
// the file, with the cache's counters consistent with the traffic.

// writeConfFiles writes a deterministic set of awkwardly-sized files
// under a real directory and returns path → contents.
func writeConfFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	sizes := map[string]int{
		"empty":      0,
		"tiny":       7,         // smaller than any block
		"oneblock":   512,       // exactly one block at bs=512
		"big":        64 * 1024, // many blocks
		"pagecross":  4096 + 33, // spills past one page
		"blockcross": 512*5 + 1, // final block is a single byte
	}
	files := make(map[string][]byte, len(sizes))
	seed := int64(7000)
	for name, n := range sizes {
		seed++
		data := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(data)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		files[filepath.Join(dir, name)] = data
	}
	return files
}

// runConf runs fn against a fresh cache over the file set, closes it,
// and checks the counters every workload must satisfy: each byte
// served was counted, and no block was read from disk more often than
// it missed.
func runConf(t *testing.T, cfg cache.Config, files map[string][]byte,
	fn func(t *testing.T, c *cache.Cache, files map[string][]byte)) cache.Stats {
	t.Helper()
	c := cache.New(cfg)
	fn(t, c, files)
	st := c.Stats()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st.Hits+st.Misses == 0 || st.BytesServed == 0 {
		t.Errorf("workload saw no traffic: %+v", st)
	}
	if st.BytesRead > st.Misses*int64(cfg.BlockBytes) {
		t.Errorf("read %d bytes over %d misses of %d-byte blocks", st.BytesRead, st.Misses, cfg.BlockBytes)
	}
	return st
}

// TestConformanceScripted runs a deterministic script of edge-case
// reads — block straddles, EOF boundaries, empty files, re-reads.
func TestConformanceScripted(t *testing.T) {
	files := writeConfFiles(t, t.TempDir())
	cfg := cache.Config{BlockBytes: 512, MaxBytes: 1 << 20}
	runConf(t, cfg, files, func(t *testing.T, c *cache.Cache, files map[string][]byte) {
		for path, want := range files {
			r, err := c.Open(path)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			size := int64(len(want))
			// Offsets around every interesting boundary in the file.
			offs := []int64{0, 1, 511, 512, 513, 4095, 4096, 4097, size - 1, size, size + 100}
			lens := []int{1, 7, 512, 513, 4096}
			for _, off := range offs {
				if off < 0 {
					continue
				}
				for _, n := range lens {
					buf := make([]byte, n)
					got, err := r.ReadAt(buf, off)
					wantN := int(size - off)
					if wantN < 0 {
						wantN = 0
					}
					if wantN > n {
						wantN = n
					}
					if got != wantN {
						t.Fatalf("%s @%d+%d: n=%d want %d (err %v)", path, off, n, got, wantN, err)
					}
					if wantN < n && err == nil {
						t.Fatalf("%s @%d+%d: short read with nil error", path, off, n)
					}
					if got > 0 && !bytes.Equal(buf[:got], want[off:off+int64(got)]) {
						t.Fatalf("%s @%d+%d: bytes differ", path, off, n)
					}
				}
			}
			// Single-block views.
			if v, ok := r.(cache.Viewer); ok {
				for _, off := range []int64{0, 512, 1024} {
					if off+256 > size {
						continue
					}
					if data, ok := v.ViewAt(off, 256); ok {
						if !bytes.Equal(data, want[off:off+256]) {
							t.Fatalf("%s: ViewAt(%d, 256) bytes differ", path, off)
						}
					}
				}
			}
			r.Release()
		}
	})
}

// TestConformanceRandomized replays a seeded random workload —
// interleaved reads across files, sizes spanning many blocks — under a
// budget small enough to evict, and requires byte-identical results.
func TestConformanceRandomized(t *testing.T) {
	files := writeConfFiles(t, t.TempDir())
	var paths []string
	for p := range files {
		paths = append(paths, p)
	}
	// A small budget forces evictions.
	cfg := cache.Config{BlockBytes: 512, MaxBytes: 8 << 10, Shards: 2}
	st := runConf(t, cfg, files, func(t *testing.T, c *cache.Cache, files map[string][]byte) {
		rng := rand.New(rand.NewSource(99))
		readers := map[string]cache.Reader{}
		defer func() {
			for _, r := range readers {
				r.Release()
			}
		}()
		for i := 0; i < 4000; i++ {
			path := paths[rng.Intn(len(paths))]
			want := files[path]
			r := readers[path]
			if r == nil {
				var err error
				r, err = c.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				readers[path] = r
			}
			if len(want) == 0 {
				buf := make([]byte, 8)
				if n, _ := r.ReadAt(buf, 0); n != 0 {
					t.Fatalf("%s: read %d bytes from an empty file", path, n)
				}
				continue
			}
			off := rng.Int63n(int64(len(want)))
			n := 1 + rng.Intn(2048)
			buf := make([]byte, n)
			got, err := r.ReadAt(buf, off)
			if int64(got) != min64(int64(n), int64(len(want))-off) {
				t.Fatalf("%s @%d+%d: n=%d err=%v", path, off, n, got, err)
			}
			if !bytes.Equal(buf[:got], want[off:off+int64(got)]) {
				t.Fatalf("%s @%d+%d: bytes differ", path, off, n)
			}
			// Occasionally take a view of the same span's first block.
			if v, ok := r.(cache.Viewer); ok && i%7 == 0 {
				vn := rng.Intn(256) + 1
				if data, ok := v.ViewAt(off, vn); ok {
					if !bytes.Equal(data, want[off:off+int64(vn)]) {
						t.Fatalf("%s: ViewAt(%d,%d) bytes differ", path, off, vn)
					}
				}
			}
		}
	})
	if st.Evictions == 0 {
		t.Errorf("randomized workload never evicted: %+v", st)
	}
}

// TestConformanceWarmPassesReadNothing checks the defining cache
// invariant: a warm re-scan does zero physical I/O.
func TestConformanceWarmPassesReadNothing(t *testing.T) {
	dir := t.TempDir()
	want := make([]byte, 32*1024)
	rand.New(rand.NewSource(123)).Read(want)
	path := filepath.Join(dir, "data")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Run("pread", func(t *testing.T) {
		c := cache.New(cache.Config{BlockBytes: 1024})
		defer c.Close()
		scan := func() cache.Counters {
			r, err := c.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Release()
			buf := make([]byte, 1024)
			for off := int64(0); off < int64(len(want)); off += 1024 {
				if _, err := r.ReadAt(buf, off); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, want[off:off+1024]) {
					t.Fatalf("bytes differ at %d", off)
				}
			}
			return r.Counters()
		}
		cold := scan()
		warm := scan()
		if cold.Misses == 0 || cold.BytesRead == 0 {
			t.Errorf("cold scan saw no traffic: %+v", cold)
		}
		if warm.BytesRead != 0 || warm.Misses != 0 {
			t.Errorf("warm scan was not free: %+v", warm)
		}
		if warm.Hits != cold.Hits+cold.Misses {
			t.Errorf("warm hits = %d, want %d", warm.Hits, cold.Hits+cold.Misses)
		}
	})
}

// TestConformanceFaults runs the injected open and read faults through
// a Disk opener over a real file and checks each surfaces once and the
// cache recovers.
func TestConformanceFaults(t *testing.T) {
	dir := t.TempDir()
	want := make([]byte, 8192)
	rand.New(rand.NewSource(55)).Read(want)
	path := filepath.Join(dir, "data")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Run("pread", func(t *testing.T) {
		disk := &cachetest.Disk{}
		c := cache.New(cache.Config{BlockBytes: 1024, OpenFile: disk.Open})
		defer c.Close()

		disk.FailNextOpens(1)
		if _, err := c.Open(path); err == nil {
			t.Fatal("open fault did not surface")
		}
		r, err := c.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Release()
		disk.FailReadNumber(disk.Reads.Load() + 1)
		buf := make([]byte, 1024)
		if _, err := r.ReadAt(buf, 0); err == nil {
			t.Fatal("read fault did not surface")
		}
		if _, err := r.ReadAt(buf, 0); err != nil {
			t.Fatalf("retry after read fault: %v", err)
		}
		if !bytes.Equal(buf, want[:1024]) {
			t.Fatal("retry served wrong bytes")
		}
	})
}

// TestConformanceCloseStorm races concurrent readers against Close
// under -race: reads that lose the race may error, but nothing may
// panic, leak, or return wrong bytes.
func TestConformanceCloseStorm(t *testing.T) {
	files := writeConfFiles(t, t.TempDir())
	var paths []string
	for p := range files {
		if len(files[p]) > 0 {
			paths = append(paths, p)
		}
	}
	t.Run("pread", func(t *testing.T) {
		disk := &cachetest.Disk{}
		c := cache.New(cache.Config{BlockBytes: 512, MaxBytes: 8 << 10, Shards: 2, OpenFile: disk.Open})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < 400; i++ {
					path := paths[rng.Intn(len(paths))]
					want := files[path]
					r, err := c.Open(path)
					if err != nil {
						return // lost the race to Close
					}
					off := rng.Int63n(int64(len(want)))
					n := 1 + rng.Intn(1024)
					buf := make([]byte, n)
					got, _ := r.ReadAt(buf, off) // losing the race to Close is an error, never corruption
					if !bytes.Equal(buf[:got], want[off:off+int64(got)]) {
						r.Release()
						panic(fmt.Sprintf("%s @%d+%d: corrupt bytes", path, off, n))
					}
					r.Release()
				}
			}(w)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		c.Close() //nolint:errcheck — sweeps handles reopened after the first Close
		if disk.Opens.Load() != disk.Closes.Load() {
			t.Errorf("fd leak: %d opens, %d closes", disk.Opens.Load(), disk.Closes.Load())
		}
	})
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
