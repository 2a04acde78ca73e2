// Package cachetest provides the shared test doubles for code that
// reads through internal/cache: an in-memory fake filesystem (FS) and
// a counting wrapper over real files (Disk), both pluggable into
// cache.Config.OpenFile and both with injectable fault points — open
// failures, an I/O error on the Nth physical read, short reads and
// slow reads. The cache, extractor and core test suites all build on
// it, so every layer exercises the same failure modes.
package cachetest

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"datavirt/internal/cache"
)

// Injected fault errors, distinguishable from real failures.
var (
	// ErrIO is returned by a read the faults selected for failure.
	ErrIO = errors.New("cachetest: injected I/O error")
	// ErrOpen is returned by an open the faults selected for failure.
	ErrOpen = errors.New("cachetest: injected open failure")
)

// Faults are the injectable failure points, safe for concurrent use;
// the zero value injects nothing. FS and Disk embed it.
type Faults struct {
	failOpens atomic.Int64
	failRead  atomic.Int64
	shortRead atomic.Int64
	readDelay atomic.Int64
}

// FailNextOpens makes the next n opens fail with ErrOpen.
func (f *Faults) FailNextOpens(n int) { f.failOpens.Store(int64(n)) }

// FailReadNumber makes the nth physical read (1-based, counted across
// all files) fail with ErrIO; 0 disarms.
func (f *Faults) FailReadNumber(n int64) { f.failRead.Store(n) }

// LimitReadBytes caps how many bytes each physical read delivers.
// Reads asked for more return a short count with a nil error — the
// lazy-reader shape io.ReaderAt implementations are allowed to take
// only at EOF, which callers above the cache must surface as a clean
// error rather than decode as data. 0 disarms.
func (f *Faults) LimitReadBytes(n int) { f.shortRead.Store(int64(n)) }

// SetReadDelay stalls every physical read by d, letting concurrent
// callers pile onto the cache's single-flight path.
func (f *Faults) SetReadDelay(d time.Duration) { f.readDelay.Store(int64(d)) }

// openFault consumes one pending open failure, if armed.
func (f *Faults) openFault() error {
	for {
		n := f.failOpens.Load()
		if n <= 0 {
			return nil
		}
		if f.failOpens.CompareAndSwap(n, n-1) {
			return ErrOpen
		}
	}
}

// readFault applies the read-level faults to the readNo-th physical
// read: an injected error, or a shortened destination buffer.
func (f *Faults) readFault(readNo int64, p []byte) ([]byte, error) {
	if d := f.readDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if n := f.failRead.Load(); n > 0 && readNo == n {
		return nil, ErrIO
	}
	if max := f.shortRead.Load(); max > 0 && int64(len(p)) > max {
		p = p[:max]
	}
	return p, nil
}

// FS is an in-memory fake filesystem that counts physical opens, reads
// and closes — the observability leak and single-flight tests need.
type FS struct {
	Faults
	Opens  atomic.Int64
	Reads  atomic.Int64
	Closes atomic.Int64

	mu    sync.Mutex
	files map[string][]byte //dvlint:guardedby mu
}

// NewFS returns an empty fake filesystem.
func NewFS() *FS { return &FS{files: map[string][]byte{}} }

// Put installs n deterministically pseudorandom bytes (by seed) at
// path and returns them.
func (fs *FS) Put(path string, n int, seed int64) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	fs.PutBytes(path, data)
	return data
}

// PutBytes installs data at path.
func (fs *FS) PutBytes(path string, data []byte) {
	fs.mu.Lock()
	fs.files[path] = data
	fs.mu.Unlock()
}

// Bytes returns the current contents of path (nil if absent).
func (fs *FS) Bytes(path string) []byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.files[path]
}

// Open is the cache.Config.OpenFile hook.
func (fs *FS) Open(path string) (cache.File, error) {
	fs.mu.Lock()
	data, ok := fs.files[path]
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cachetest: no file %q", path)
	}
	if err := fs.openFault(); err != nil {
		return nil, err
	}
	fs.Opens.Add(1)
	return &memFile{fs: fs, data: data}, nil
}

type memFile struct {
	fs     *FS
	data   []byte
	closed atomic.Int64
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() > 0 {
		return 0, fmt.Errorf("cachetest: read of closed file")
	}
	readNo := f.fs.Reads.Add(1)
	dst, err := f.fs.readFault(readNo, p)
	if err != nil {
		return 0, err
	}
	if off < 0 || off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(dst, f.data[off:])
	if n < len(dst) {
		return n, io.EOF
	}
	return n, nil // may be short of len(p) under LimitReadBytes
}

func (f *memFile) Close() error {
	if f.closed.Add(1) > 1 {
		panic("cachetest: double close")
	}
	f.fs.Closes.Add(1)
	return nil
}

// Disk opens real files through os.Open with the same counters and
// fault points as FS — the opener extractor and core tests hand to
// cache.Config.OpenFile when they want physical-I/O accounting over
// generated datasets.
type Disk struct {
	Faults
	Opens  atomic.Int64
	Reads  atomic.Int64
	Closes atomic.Int64
}

// Open is the cache.Config.OpenFile hook.
func (d *Disk) Open(path string) (cache.File, error) {
	if err := d.openFault(); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	d.Opens.Add(1)
	return &diskFile{d: d, f: f}, nil
}

type diskFile struct {
	d      *Disk
	f      *os.File
	closed atomic.Int64
}

func (f *diskFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() > 0 {
		return 0, fmt.Errorf("cachetest: read of closed file")
	}
	readNo := f.d.Reads.Add(1)
	dst, err := f.d.readFault(readNo, p)
	if err != nil {
		return 0, err
	}
	n, err := f.f.ReadAt(dst, off)
	if err == nil && n == len(dst) {
		return n, nil // may be short of len(p) under LimitReadBytes
	}
	return n, err
}

func (f *diskFile) Close() error {
	if f.closed.Add(1) > 1 {
		panic("cachetest: double close")
	}
	f.d.Closes.Add(1)
	return f.f.Close()
}
