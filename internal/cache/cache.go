// Package cache is the node-local caching layer between the extraction
// engine and the filesystem. It exists because the hot path of the
// paper's design re-reads aligned file chunks from flat files on every
// query: STORM's data-source service gets no reuse across queries even
// when interactive clients zoom and pan over overlapping spatial
// ranges. The cache turns those repeated chunk reads into memory hits.
//
// Two cooperating pieces, and no background goroutine:
//
//   - a bounded file-handle cache (LRU over open files, close-on-evict,
//     reference-counted so a handle is never closed under a concurrent
//     ReadAt) — see handles.go;
//   - a sharded block cache: fixed-size aligned blocks keyed by
//     (path, blockNo), copied out of the file with one positional read
//     on a miss, per-shard LRU eviction under a byte budget, with
//     single-flight loading so N concurrent workers asking for the same
//     block issue exactly one filesystem read.
//
// The extractor consumes the cache through the Source/Reader interfaces
// and never touches os.Open directly; one Cache instance is shared
// across queries by core.Service (and therefore by every cluster node
// server built on it).
package cache

import (
	"container/list"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// File is the cache's view of one underlying file. The default opener
// wraps *os.File; tests substitute counting fakes through
// Config.OpenFile.
type File interface {
	io.ReaderAt
	io.Closer
}

// Source opens named byte sources for the extraction engine.
// Implementations must be safe for concurrent use.
type Source interface {
	// Open returns a reader positioned over the file at path. Each
	// extraction goroutine opens its own Reader (readers are not safe
	// for concurrent use; the Source and the cache behind it are).
	Open(path string) (Reader, error)
}

// Reader reads one file through the cache. A Reader is owned by a
// single goroutine; Release returns its resources (the file-handle
// reference) to the cache. ReadAt follows the io.ReaderAt contract:
// a read past the end of the file returns io.EOF with a short count.
type Reader interface {
	io.ReaderAt
	// Release returns the reader's handle reference; the reader must
	// not be used afterwards. Release is idempotent.
	Release()
	// Counters snapshots the reader's read counters.
	Counters() Counters
}

// Viewer is the optional Reader extension for zero-copy access: when a
// span fits inside one cache block, ViewAt hands out a slice of the
// immutable cached block buffer instead of copying the bytes out.
type Viewer interface {
	// ViewAt returns a read-only slice over [off, off+n), valid until
	// the Reader is Released; the caller must not write to it or retain
	// it past Release. ok is false when the span crosses a block
	// boundary, runs past EOF, the read fails, or the reader is in
	// disabled mode — callers fall back to ReadAt.
	ViewAt(off int64, n int) (data []byte, ok bool)
}

// Counters are one reader's demand-read totals.
type Counters struct {
	// Hits and Misses count block lookups (zero in disabled mode).
	Hits   int64
	Misses int64
	// BytesRead is the bytes this reader's loads pulled from the
	// filesystem.
	BytesRead int64
	// BytesServed is the bytes delivered to the caller.
	BytesServed int64
}

// Stats is a snapshot of the cache's global counters.
type Stats struct {
	// Hits and Misses count block lookups.
	Hits   int64
	Misses int64
	// Evictions counts blocks dropped under byte pressure.
	Evictions int64
	// BytesRead is bytes pulled from the filesystem; BytesServed is
	// bytes delivered to readers. The difference is the I/O the cache
	// saved.
	BytesRead   int64
	BytesServed int64
	// HandleOpens and HandleEvicts count file-handle churn.
	HandleOpens  int64
	HandleEvicts int64
	// Blocks and Bytes are the current residency.
	Blocks int64
	Bytes  int64
}

// BytesSaved is the filesystem I/O avoided: bytes served minus bytes
// actually read (clamped at zero for cold caches, where whole-block
// loads can exceed the bytes served).
func (s Stats) BytesSaved() int64 {
	if v := s.BytesServed - s.BytesRead; v > 0 {
		return v
	}
	return 0
}

// Defaults applied by New for zero Config fields.
const (
	DefaultMaxBytes   = 64 << 20
	DefaultBlockBytes = 256 << 10
	DefaultMaxHandles = 128
	defaultShards     = 16
)

// Config sizes a Cache. The zero value gives a 64 MiB cache of 256 KiB
// blocks over at most 128 open handles.
type Config struct {
	// MaxBytes is the block cache byte budget (approximate: it is split
	// evenly across shards and each shard keeps at least one block).
	MaxBytes int64
	// BlockBytes is the aligned block size.
	BlockBytes int
	// MaxHandles bounds the open file handles pooled by the cache.
	// Handles pinned by active readers can exceed the bound transiently;
	// they are closed as soon as the last reference is released.
	MaxHandles int
	// Disabled bypasses the block layer entirely: readers perform direct
	// positional reads, but handles are still pooled and byte counters
	// still maintained. This is the configuration for `-cache-mb 0`.
	Disabled bool
	// Shards is the number of block-cache shards (default 16).
	Shards int
	// OpenFile opens underlying files; defaults to os.Open. Tests use it
	// to count physical opens and reads.
	OpenFile func(path string) (File, error)
}

// blockKey names one cached block.
type blockKey struct {
	path    string
	blockNo int64
}

// entry is one resident block. data is an immutable heap buffer, so
// readers may copy from (or view) it without holding the shard lock,
// and a slice handed out stays valid after the entry is evicted.
type entry struct {
	key  blockKey
	data []byte
	eof  bool // the block ends at (or past) the end of the file
	elem *list.Element
}

// flight is one in-progress block load; concurrent callers for the
// same block wait on done instead of issuing their own read.
type flight struct {
	done chan struct{}
	data []byte
	eof  bool
	err  error
}

// shard is one lock domain of the block cache.
type shard struct {
	mu       sync.Mutex
	entries  map[blockKey]*entry  //dvlint:guardedby mu
	flights  map[blockKey]*flight //dvlint:guardedby mu
	lru      *list.List           //dvlint:guardedby mu (front = most recent)
	bytes    int64                //dvlint:guardedby mu
	maxBytes int64                // immutable after New
}

// Cache is the node-local block cache. Safe for concurrent use; one
// instance is shared across every query of a service.
type Cache struct {
	cfg     Config
	handles *handleCache
	shards  []shard

	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	bytesRead   atomic.Int64
	bytesServed atomic.Int64
}

// New builds a cache, normalizing zero Config fields to the defaults.
// Close must be called to release pooled handles.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.BlockBytes <= 0 {
		cfg.BlockBytes = DefaultBlockBytes
	}
	if cfg.MaxHandles <= 0 {
		cfg.MaxHandles = DefaultMaxHandles
	}
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards
	}
	if cfg.OpenFile == nil {
		cfg.OpenFile = func(path string) (File, error) { return os.Open(path) }
	}
	c := &Cache{
		cfg:     cfg,
		handles: newHandleCache(cfg.MaxHandles, cfg.OpenFile),
		shards:  make([]shard, cfg.Shards),
	}
	perShard := cfg.MaxBytes / int64(cfg.Shards)
	if perShard < int64(cfg.BlockBytes) {
		perShard = int64(cfg.BlockBytes)
	}
	for i := range c.shards {
		c.shards[i].entries = map[blockKey]*entry{}
		c.shards[i].flights = map[blockKey]*flight{}
		c.shards[i].lru = list.New()
		c.shards[i].maxBytes = perShard
	}
	return c
}

// Close closes every pooled handle and drops all cached blocks.
// Readers still open keep their handle alive until Release; new reads
// through them fail once the handle is released and closed. Close is
// idempotent.
func (c *Cache) Close() error {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = map[blockKey]*entry{}
		s.lru.Init()
		s.bytes = 0
		s.mu.Unlock()
	}
	c.handles.closeAll()
	return nil
}

// Open implements Source.
func (c *Cache) Open(path string) (Reader, error) {
	h, err := c.handles.acquire(path)
	if err != nil {
		return nil, err
	}
	return &reader{c: c, path: path, h: h, memoNo: -1}, nil
}

// Stats snapshots the global counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		BytesRead:   c.bytesRead.Load(),
		BytesServed: c.bytesServed.Load(),
	}
	st.HandleOpens, st.HandleEvicts = c.handles.stats()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Blocks += int64(len(s.entries))
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

func (c *Cache) shard(k blockKey) *shard {
	// FNV-1a over the path plus the block number spreads neighbouring
	// blocks of one file across shards, so a sequential scan does not
	// serialize on a single lock.
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.path); i++ {
		h ^= uint64(k.path[i])
		h *= 1099511628211
	}
	h ^= uint64(k.blockNo)
	h *= 1099511628211
	return &c.shards[h%uint64(len(c.shards))]
}

// getBlock returns the named block's immutable bytes, loading it
// through the single-flight path on a miss; ctr receives the caller's
// attribution.
func (c *Cache) getBlock(h *handle, k blockKey, ctr *Counters) (data []byte, eof bool, err error) {
	s := c.shard(k)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		c.hits.Add(1)
		ctr.Hits++
		return e.data, e.eof, nil
	}
	c.misses.Add(1)
	ctr.Misses++
	if f, ok := s.flights[k]; ok {
		s.mu.Unlock()
		<-f.done
		return f.data, f.eof, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[k] = f
	s.mu.Unlock()
	return c.loadBlock(s, h, k, f, ctr)
}

// loadBlock performs the cold half of getBlock: read the block,
// publish the flight, install the entry, evict under byte pressure.
// The caller has already registered f in s.flights.
func (c *Cache) loadBlock(s *shard, h *handle, k blockKey, f *flight, ctr *Counters) ([]byte, bool, error) {
	buf := make([]byte, c.cfg.BlockBytes)
	n, err := h.f.ReadAt(buf, k.blockNo*int64(c.cfg.BlockBytes))
	eof := false
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		eof, err = true, nil
	}
	if err != nil {
		f.err = fmt.Errorf("cache: reading %s block %d: %w", k.path, k.blockNo, err)
		s.mu.Lock()
		delete(s.flights, k)
		s.mu.Unlock()
		close(f.done)
		return nil, false, f.err
	}
	data := buf[:n]
	f.data, f.eof = data, eof
	c.bytesRead.Add(int64(n))
	ctr.BytesRead += int64(n)

	e := &entry{key: k, data: data, eof: eof}
	s.mu.Lock()
	delete(s.flights, k)
	e.elem = s.lru.PushFront(e)
	s.entries[k] = e
	s.bytes += int64(n)
	for s.bytes > s.maxBytes && s.lru.Len() > 1 {
		tail := s.lru.Back()
		victim := tail.Value.(*entry)
		s.lru.Remove(tail)
		delete(s.entries, victim.key)
		s.bytes -= int64(len(victim.data))
		c.evictions.Add(1)
	}
	s.mu.Unlock()
	close(f.done)
	return data, eof, nil
}

// reader is the Reader implementation for both cached and disabled
// modes. It is single-goroutine by contract, so its counters and memo
// need no synchronization.
type reader struct {
	c        *Cache
	path     string
	h        *handle
	ctr      Counters
	released bool

	// memo holds the most recent block touched by this reader, served
	// without the shard lock: sequential small reads land in the same
	// block hundreds of times in a row, and this keeps the hot path at
	// memcpy cost. Block data is immutable, so the memo stays valid
	// even after the block is evicted (it pins at most one block per
	// reader).
	memoNo   int64 // -1 = empty
	memoData []byte
	memoEOF  bool
}

// block returns block bn's bytes, from the memo or through the cache.
// It is kept small enough to inline, so a memo hit costs no call.
func (r *reader) block(bn int64) ([]byte, bool, error) {
	if bn != r.memoNo {
		return r.fetch(bn)
	}
	r.ctr.Hits++
	r.c.hits.Add(1)
	return r.memoData, r.memoEOF, nil
}

// fetch looks block bn up in the cache and memoizes it.
func (r *reader) fetch(bn int64) ([]byte, bool, error) {
	data, eof, err := r.c.getBlock(r.h, blockKey{r.path, bn}, &r.ctr)
	if err == nil {
		r.memoNo, r.memoData, r.memoEOF = bn, data, eof
	}
	return data, eof, err
}

// ReadAt implements io.ReaderAt through the block cache (or directly
// in disabled mode).
func (r *reader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("cache: negative offset %d", off)
	}
	if r.c.cfg.Disabled {
		n, err := r.h.f.ReadAt(p, off)
		r.ctr.BytesRead += int64(n)
		r.c.bytesRead.Add(int64(n))
		r.account(n)
		return n, err
	}
	bs := int64(r.c.cfg.BlockBytes)
	n := 0
	for n < len(p) {
		bn, boff := chunkAt(off+int64(n), bs)
		data, eof, err := r.block(bn)
		if err != nil {
			r.account(n)
			return n, err
		}
		if int64(len(data)) <= boff {
			r.account(n)
			if eof {
				return n, io.EOF
			}
			// A non-final block is always full; a short one means the
			// file shrank under us after the block was cached.
			return n, io.ErrUnexpectedEOF
		}
		n += copy(p[n:], data[boff:])
		if n < len(p) && eof {
			r.account(n)
			return n, io.EOF
		}
	}
	r.account(n)
	return n, nil
}

func (r *reader) account(n int) {
	r.ctr.BytesServed += int64(n)
	r.c.bytesServed.Add(int64(n))
}

// ViewAt implements Viewer: spans inside one cache block are served as
// a slice of the immutable block buffer itself, with no copy. The
// block lookup is the same one ReadAt performs, so hit/miss accounting
// is identical whichever entry point a caller uses.
func (r *reader) ViewAt(off int64, n int) ([]byte, bool) {
	if n <= 0 || off < 0 || r.c.cfg.Disabled {
		return nil, false
	}
	bs := int64(r.c.cfg.BlockBytes)
	if crossesChunk(off, int64(n), bs) {
		return nil, false
	}
	bn, boff := chunkAt(off, bs)
	data, _, err := r.block(bn)
	if err != nil || int64(len(data)) < boff+int64(n) {
		// A failed read (let the ReadAt fallback surface the error) or
		// a short block: the span runs past EOF.
		return nil, false
	}
	r.account(n)
	return data[boff : boff+int64(n)], true
}

// Release implements Reader.
func (r *reader) Release() {
	if r.released {
		return
	}
	r.released = true
	r.memoNo, r.memoData = -1, nil
	r.c.handles.release(r.h)
}

// Counters implements Reader.
func (r *reader) Counters() Counters { return r.ctr }
