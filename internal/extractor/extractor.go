// Package extractor implements the runtime half of the generated
// extraction functions: given the aligned file chunks computed by
// internal/afc, it reads the named byte regions, assembles rows of the
// virtual table (payload attributes decoded from file bytes, implicit
// attributes supplied from the AFC, row-axis attributes synthesized),
// applies the residual WHERE predicate, and emits the surviving rows.
//
// "By reading the m files simultaneously, with Num_Bytes_i bytes from
// the file File_i, we create one row of the table." (paper §4)
package extractor

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datavirt/internal/afc"
	"datavirt/internal/cache"
	"datavirt/internal/query"
	"datavirt/internal/schema"
	"datavirt/internal/sparse"
	"datavirt/internal/table"
)

// Resolver maps a (node, file) pair from an AFC segment to a local
// filesystem path. Single-node deployments ignore node; the cluster
// node server restricts it to its own name.
type Resolver func(node, file string) (string, error)

// SafeJoin joins name under root, rejecting absolute names and names
// whose cleaned form escapes the root (a leading ".."): descriptor
// file names are data, and data must not address files outside the
// data directory.
func SafeJoin(root, name string) (string, error) {
	rel := filepath.FromSlash(name)
	if rel == "" || filepath.IsAbs(rel) {
		return "", fmt.Errorf("extractor: file name %q is not relative", name)
	}
	rel = filepath.Clean(rel)
	if rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("extractor: file name %q escapes the data root", name)
	}
	return filepath.Join(root, rel), nil
}

// DirResolver resolves every file under a single root directory,
// ignoring the node name. Names that would escape the root are
// rejected.
func DirResolver(root string) Resolver {
	return func(node, file string) (string, error) {
		return SafeJoin(root, file)
	}
}

// Stats accumulates extraction counters.
type Stats struct {
	AFCs        int
	RowsScanned int64
	RowsEmitted int64
	BytesRead   int64
	// FilterNS is the time spent evaluating the residual predicate and
	// delivering rows, in nanoseconds, summed across workers (so it can
	// exceed the run's wall time in a parallel run).
	FilterNS int64

	// CacheHits and CacheMisses count block-cache lookups made by this
	// run's segment reads (zero when the run reads through a disabled
	// cache).
	CacheHits   int64
	CacheMisses int64
	// FSBytesRead is the bytes physically read from the filesystem by
	// this run's demand reads; a warm cache drives it toward zero while
	// BytesRead (the logical payload bytes, above) stays constant.
	// Readahead I/O is accounted on the cache's global Stats, not here.
	FSBytesRead int64
	// CacheBytesServed is the bytes delivered through the cache layer
	// (hits and misses combined, including stride gaps within spans).
	CacheBytesServed int64
	// MmapBlocksServed counts block lookups served zero-copy from a
	// file mapping by this run's demand reads (such blocks add nothing
	// to FSBytesRead); MmapRemaps counts mapping windows those reads
	// created beyond each file's first. Both stay zero under the pread
	// cache backend.
	MmapBlocksServed int64
	MmapRemaps       int64

	// BlocksSkipped counts extraction blocks proven row-free by a sparse
	// sidecar and never read (whole-AFC grid skips count as their
	// block-equivalents). SparseIndexHits and SparseIndexMisses count
	// sidecar lookups per (AFC, file) with constrained stored attributes:
	// a hit found a usable sidecar, a miss fell back to a full scan.
	BlocksSkipped     int64
	SparseIndexHits   int64
	SparseIndexMisses int64

	// VectorBatches counts blocks whose residual predicate ran through
	// the vectorized (batch/columnar) evaluator instead of per-row
	// Pred calls.
	VectorBatches int64
	// AggNS is the time spent folding selected rows into partial
	// aggregates, in nanoseconds, summed across workers.
	AggNS int64
	// AggPushedQueries counts aggregate runs evaluated push-down style
	// (no row materialization); AggPartialGroups is the number of
	// partial groups those runs produced before any coordinator merge.
	// Both are set once per RunAggregateContext call, not per AFC.
	AggPushedQueries int64
	AggPartialGroups int64
}

// Add merges other run's counters into s.
func (s *Stats) Add(o Stats) {
	s.AFCs += o.AFCs
	s.RowsScanned += o.RowsScanned
	s.RowsEmitted += o.RowsEmitted
	s.BytesRead += o.BytesRead
	s.FilterNS += o.FilterNS
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.FSBytesRead += o.FSBytesRead
	s.CacheBytesServed += o.CacheBytesServed
	s.MmapBlocksServed += o.MmapBlocksServed
	s.MmapRemaps += o.MmapRemaps
	s.BlocksSkipped += o.BlocksSkipped
	s.SparseIndexHits += o.SparseIndexHits
	s.SparseIndexMisses += o.SparseIndexMisses
	s.VectorBatches += o.VectorBatches
	s.AggNS += o.AggNS
	s.AggPushedQueries += o.AggPushedQueries
	s.AggPartialGroups += o.AggPartialGroups
}

// EmitFunc receives each surviving row.
//
// Delivery and row-reuse contract (the one canonical statement; every
// emitting API in this module — RunBatchesContext, core.Prepared's
// RunContext, the runner handed to core.NewRows, the cluster
// coordinator's callbacks, and storm.Sink.Send — follows it). Rows
// travel a block at a time: the survivors of one extraction block (1 to
// MaxBatchRows rows) reach a BatchFunc as one batch, and an EmitFunc
// sees the same batches unrolled row by row (PerRow). Every row an
// EmitFunc sees, and every batch a BatchFunc is handed with owned ==
// false, is borrowed: the row slices and their backing array belong to
// the producer and are overwritten by the next block, so a receiver that
// retains rows beyond the call copies the batch once with
// table.CopyRows. A batch handed
// over with owned == true is freshly allocated memory the producer
// never touches again; the receiver keeps it as is. The core.Rows
// cursor only ever hands out rows of the second kind: they are never
// reused, and a retained row pins at most the batch it arrived in.
type EmitFunc func(row table.Row) error

// BatchFunc receives one block's surviving rows; see EmitFunc for the
// ownership contract. rows is never empty.
type BatchFunc func(rows []table.Row, owned bool) error

// PerRow unrolls batch delivery into per-row emit calls — the one place
// a per-row callback API is laid over the block-granular pipeline.
func PerRow(emit EmitFunc) BatchFunc {
	return func(rows []table.Row, _ bool) error {
		for _, r := range rows {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}
}

// Options configure an extraction run. Rows are delivered under the
// reuse contract documented on EmitFunc.
type Options struct {
	// Cols is the working row layout: every attribute the predicate or
	// the final projection needs, in output order.
	Cols []schema.Attribute
	// Pred filters rows; nil accepts everything.
	Pred query.Predicate
	// VecPred is the same WHERE clause compiled for vectorized (batch)
	// evaluation. When set (and ScalarFilter is off), blocks are decoded
	// into column vectors, the predicate narrows a selection vector, and
	// only surviving rows are materialized — identical row sets to Pred,
	// asserted by a differential fuzz test.
	VecPred *query.VectorPredicate
	// ScalarFilter forces the per-row Pred path even when VecPred is
	// set — the oracle in differential tests and the baseline in
	// benchmarks.
	ScalarFilter bool
	// BlockBytes bounds the I/O buffer per segment (default 1 MiB).
	BlockBytes int
	// Workers sets the parallelism of a parallel run (default GOMAXPROCS
	// capped at 8).
	Workers int
	// Source supplies byte readers for segment files — typically the
	// node's shared block cache (*cache.Cache, see internal/cache), so
	// repeated and overlapping queries reuse resident blocks. nil uses
	// a run-scoped passthrough source: direct reads, but open handles
	// are still pooled across the run's AFCs instead of reopening the
	// file per chunk.
	Source cache.Source

	// Ranges is the query's canonical per-attribute constraint sets
	// (conservatively over-approximating the WHERE clause). Together
	// with Sparse it enables data skipping: blocks whose sidecar zone
	// maps cannot intersect the ranges are never read.
	Ranges query.Ranges
	// Sparse returns the sparse sidecar for a (node, file) pair, or nil
	// when the file has none. nil disables data skipping entirely;
	// pruning is always a pure optimization — rows are identical with
	// and without it.
	Sparse func(node, file string) *sparse.Sidecar
}

const defaultBlockBytes = 1 << 20

// runSource resolves opt.Source for one run; the cleanup closes the
// fallback source (a no-op closure when the caller supplied one, whose
// lifetime the caller owns).
func runSource(opt Options) (cache.Source, func()) {
	if opt.Source != nil {
		return opt.Source, func() {}
	}
	local := cache.New(cache.Config{Disabled: true})
	return local, func() { local.Close() }
}

// segKey identifies one pooled segment reader. dup distinguishes
// multiple segments of a single AFC that reference the same file, so
// each keeps its own reader — its own block memo and its own forward
// scan as seen by the cache's readahead.
type segKey struct {
	node, file string
	dup        int
}

// segPool caches resolved paths and open readers across the AFCs of
// one extraction goroutine. Datasets with thousands of chunk-sized
// AFCs over a handful of files would otherwise pay a resolver call
// and a reader allocation per segment per AFC — enough garbage that
// GC frequency, not the serve path, dominates warm-scan timing.
// Pooling opens each (node, file, dup) once and releases it when the
// run (or worker) finishes. Demand counters are delta-folded into
// Stats after each AFC, so totals match the unpooled accounting.
type segPool struct {
	src     cache.Source
	resolve Resolver
	readers map[segKey]*poolEntry
	scratch []cache.Reader // per-AFC reader slice, reused across open calls
	dups    map[segKey]int // per-AFC occurrence counts, reused (dup field zero)
}

type poolEntry struct {
	r      cache.Reader
	folded cache.Counters // counter values already folded into Stats
}

func newSegPool(src cache.Source, resolve Resolver) *segPool {
	return &segPool{
		src:     src,
		resolve: resolve,
		readers: make(map[segKey]*poolEntry),
		dups:    make(map[segKey]int),
	}
}

// open returns one reader per segment of the AFC, opening only
// segments not seen before. The returned slice is valid until the
// next open call. On error, already-pooled readers stay open for the
// pool's release to reclaim.
func (p *segPool) open(a *afc.AFC) ([]cache.Reader, error) {
	if cap(p.scratch) < len(a.Segments) {
		p.scratch = make([]cache.Reader, len(a.Segments))
	}
	readers := p.scratch[:len(a.Segments)]
	clear(p.dups)
	for i, s := range a.Segments {
		base := segKey{node: s.Node, file: s.File}
		k := base
		k.dup = p.dups[base]
		p.dups[base] = k.dup + 1
		e, ok := p.readers[k]
		if !ok {
			path, err := p.resolve(s.Node, s.File)
			if err != nil {
				return nil, fmt.Errorf("extractor: %s:%s: %w", s.Node, s.File, err)
			}
			r, err := p.src.Open(path)
			if err != nil {
				return nil, fmt.Errorf("extractor: %s:%s: %w", s.Node, s.File, err)
			}
			e = &poolEntry{r: r}
			p.readers[k] = e
		}
		readers[i] = e.r
	}
	return readers, nil
}

// fold adds every pooled reader's demand-counter growth since the
// last fold into stats, keeping per-run totals exact while readers
// stay open across AFCs.
func (p *segPool) fold(stats *Stats) {
	for _, e := range p.readers {
		c := e.r.Counters()
		stats.CacheHits += c.Hits - e.folded.Hits
		stats.CacheMisses += c.Misses - e.folded.Misses
		stats.FSBytesRead += c.BytesRead - e.folded.BytesRead
		stats.CacheBytesServed += c.BytesServed - e.folded.BytesServed
		stats.MmapBlocksServed += c.MmapBlocksServed - e.folded.MmapBlocksServed
		stats.MmapRemaps += c.MmapRemaps - e.folded.MmapRemaps
		e.folded = c
	}
}

// release returns every pooled reader to the source. Counters were
// folded after each AFC, so no stats are lost here.
func (p *segPool) release() {
	for _, e := range p.readers {
		e.r.Release()
	}
	clear(p.readers)
}

// RunBatchesContext is the extractor's one row entry: it extracts the
// AFCs — sequentially, or with parallel set through a bounded worker
// pool — and hands each block's surviving rows to deliver as one batch
// (wrap a per-row callback with PerRow). Sequential batches are borrowed
// from the run's block buffer; parallel workers copy each block's
// survivors into a slab of their own to cross goroutines, so those
// batches arrive owned. deliver is only ever called on the calling
// goroutine, and row order across AFCs is unspecified when parallel (as
// in the paper's middleware, which partitions and ships tuples as they
// are produced). Cancelling ctx stops every worker between block reads
// and returns the context's error; all goroutines have exited by the
// time the call returns.
func RunBatchesContext(ctx context.Context, afcs []afc.AFC, resolver Resolver, opt Options, parallel bool, deliver BatchFunc) (Stats, error) {
	workers := runWorkers(opt, parallel, len(afcs))
	src, srcDone := runSource(opt)
	defer srcDone()

	if workers <= 1 {
		var stats Stats
		pool := newSegPool(src, resolver)
		defer pool.release()
		bb := &blockBuf{}
		for i := range afcs {
			if err := extractOne(ctx, &afcs[i], pool, opt, bb, &stats, nil, deliver); err != nil {
				return stats, err
			}
		}
		return stats, nil
	}

	// One owned slab per block; at most a batch per worker waits here, so
	// a run holds no more than 2×workers×MaxBatchRows undelivered rows.
	results := make(chan []table.Row, workers)
	workerStats := make([]Stats, workers) // slot w written by worker w, read after results closes
	done := make(chan struct{})
	var once sync.Once
	var workerErr error
	fail := func(err error) {
		once.Do(func() {
			workerErr = err
			close(done)
		})
	}
	// Workers claim AFCs off a shared counter and the last one out closes
	// results: no feeder or closer goroutine, so a small plan pays for its
	// workers' hand-offs to the collector and nothing else.
	var next, running atomic.Int64
	running.Store(int64(workers))
	var wg sync.WaitGroup

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(stats *Stats) {
			defer wg.Done()
			defer func() {
				if running.Add(-1) == 0 {
					close(results)
				}
			}()
			bb := &blockBuf{}
			pool := newSegPool(src, resolver)
			defer pool.release() // before results can close: the source outlives every reader
			ship := func(rows []table.Row, _ bool) error {
				select {
				case results <- table.CopyRows(nil, rows):
					return nil
				case <-done:
					return errStopped
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			for i := next.Add(1) - 1; i < int64(len(afcs)); i = next.Add(1) - 1 {
				select {
				case <-done:
					return
				default:
				}
				if err := extractOne(ctx, &afcs[i], pool, opt, bb, stats, nil, ship); err != nil {
					fail(err) // a no-op for errStopped: the run has failed already
					return
				}
			}
		}(&workerStats[w])
	}

	var emitErr error
	for rows := range results {
		if emitErr != nil {
			continue // drain
		}
		if err := deliver(rows, true); err != nil {
			emitErr = err
			fail(err)
		}
	}
	wg.Wait()
	var stats Stats
	for w := range workerStats {
		stats.Add(workerStats[w])
	}
	if workerErr != nil {
		return stats, workerErr
	}
	return stats, emitErr
}

// errStopped unwinds a parallel worker out of extractOne once the run
// has failed elsewhere (done is closed, so the first error is already
// recorded); it never leaves RunBatchesContext.
var errStopped = errors.New("extractor: run stopped")

// runWorkers sizes one run's worker pool: 1 unless parallel, else
// opt.Workers (defaultWorkers when unset) capped at one per AFC.
func runWorkers(opt Options, parallel bool, afcs int) int {
	if !parallel {
		return 1
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	return min(workers, afcs)
}

func defaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// colSource binds one output column to its value source within an AFC.
type colSource struct {
	// seg >= 0: decode from segment seg at attrOff within the row run.
	seg     int
	attrOff int64
	kind    schema.Kind
	// implicit: constant value (seg < 0, rowDim == nil).
	implicit schema.Value
	// rowDim: synthesized from the row index (seg < 0).
	rowDim *afc.RowDim
}

// bind resolves each working column to a source in the AFC, filling
// scratch when it has the capacity (the extraction loop re-binds per
// AFC; reusing the slice keeps the warm path allocation-free).
func bind(a *afc.AFC, cols []schema.Attribute, scratch []colSource) ([]colSource, error) {
	out := scratch
	if cap(out) < len(cols) {
		out = make([]colSource, len(cols))
	}
	out = out[:len(cols)]
Cols:
	for i, c := range cols {
		for si := range a.Segments {
			for _, at := range a.Segments[si].Attrs {
				if at.Name == c.Name {
					out[i] = colSource{seg: si, attrOff: at.Off, kind: at.Kind}
					continue Cols
				}
			}
		}
		for _, im := range a.Implicits {
			if im.Name == c.Name {
				out[i] = colSource{seg: -1, implicit: im.Value}
				continue Cols
			}
		}
		for ri := range a.RowDims {
			if a.RowDims[ri].Name == c.Name {
				out[i] = colSource{seg: -1, rowDim: &a.RowDims[ri]}
				continue Cols
			}
		}
		return nil, fmt.Errorf("extractor: AFC provides no source for attribute %q", c.Name)
	}
	return out, nil
}

// maxBlockRows caps the block materialization buffer.
const maxBlockRows = 512

// MaxBatchRows bounds the rows in one delivered batch: a batch is one
// extraction block's survivors.
const MaxBatchRows = maxBlockRows

// blockBuf holds the reusable block-materialization state of one
// extraction goroutine: a column-major-filled matrix of rows plus the
// per-segment byte buffers.
//
// Buffer-ownership discipline (checked by the cross-backend
// conformance tests): spans holds the bytes each decode loop reads
// from, and may alias cache-owned memory — a block buffer or, under
// the mmap backend, a file mapping — borrowed through
// cache.Viewer.ViewAt. Borrowed spans are only valid while the
// extraction's readers are open, so extractOne clears every spans slot
// before it releases them; nothing may write into spans or retain one
// across extractOne calls. own holds the goroutine-owned scratch
// buffers the copying ReadAt path reuses — writes go there and nowhere
// else.
type blockBuf struct {
	rows  []table.Row // a table.Matrix, refilled block after block
	keep  []table.Row // scalar-filter survivors: headers into rows, reused
	spans [][]byte
	own   [][]byte
	srcs  []colSource // bind scratch, reused across AFCs
	prune []segPrune  // sparse-pruning scratch, reused across AFCs
	files []fileSidecar

	// Vectorized-filter state: the column-vector batch, the selection
	// index vector, and the evaluator's scratch buffers — all reused
	// across blocks so the hot loop stays allocation-free.
	batch query.Batch
	sel   []int32
	vscr  query.VectorScratch
}

// segPrune is the per-segment data-skipping state of one AFC: the
// file's sidecar (nil disables pruning for the segment) and the
// constrained attributes the segment stores.
type segPrune struct {
	sc    *sparse.Sidecar
	attrs []pruneAttr
}

type pruneAttr struct {
	name string
	set  query.Set
}

// fileSidecar memoizes one sidecar lookup within an AFC.
type fileSidecar struct {
	node, file string
	sc         *sparse.Sidecar
}

func (bb *blockBuf) shape(rows, cols, segs int) {
	// cols can be zero (a bare COUNT(*) reads no attributes); the row
	// slice must still exist for the scalar delivery path.
	if len(bb.rows) < rows || len(bb.rows[0]) != cols {
		bb.rows = table.Matrix(rows, cols)
	}
	if len(bb.spans) < segs {
		bb.spans = make([][]byte, segs)
	}
	if len(bb.own) < segs {
		bb.own = make([][]byte, segs)
	}
}

// dropSpans forgets every borrowed span; it runs before the segment
// readers are released so no view outlives the mapping pinning it.
func (bb *blockBuf) dropSpans() {
	for i := range bb.spans {
		bb.spans[i] = nil
	}
}

// extractOne streams one AFC: it reads the block's byte spans through
// the segment readers (cache-backed or passthrough), fills the block
// column by column with kind-specialized tight loops (the run-time
// counterpart of the generated extraction code's straight-line
// decoding), then filters and delivers rows. The context is checked
// between blocks, bounding cancellation latency to one block read
// (≤ maxBlockRows rows). One reader per segment means the cache's
// readahead sees each segment as its own forward scan.
//
// Delivery has three modes. With a vectorized predicate the block is
// decoded into column vectors, the predicate narrows a selection index
// vector, and only surviving rows are materialized. With agg set,
// selected rows are folded straight into the partial-aggregate state
// and never materialized at all. Otherwise (or under
// Options.ScalarFilter) the original fill-every-row, per-row-Pred path
// runs. Either way a block's survivors reach deliver as one borrowed
// batch (see EmitFunc) when the block ends, so a selective query's
// first row is not held back waiting for a fuller batch.
func extractOne(ctx context.Context, a *afc.AFC, pool *segPool, opt Options, bb *blockBuf, stats *Stats, agg *query.AggState, deliver BatchFunc) error {
	stats.AFCs++
	if a.NumRows == 0 {
		return nil
	}
	sources, err := bind(a, opt.Cols, bb.srcs)
	if err != nil {
		return err
	}
	bb.srcs = sources

	blockBytes := opt.BlockBytes
	if blockBytes <= 0 {
		blockBytes = defaultBlockBytes
	}
	// Rows per block: bounded by the widest segment stride.
	maxStride := int64(1)
	for _, s := range a.Segments {
		st := s.RowStride
		if st == 0 {
			st = s.RowBytes
		}
		if st > maxStride {
			maxStride = st
		}
	}
	rowsPerBlock := int64(blockBytes) / maxStride
	if rowsPerBlock < 1 {
		rowsPerBlock = 1
	}
	if rowsPerBlock > maxBlockRows {
		rowsPerBlock = maxBlockRows
	}

	// Sparse data skipping: resolved before any file is opened, so an
	// AFC pruned whole by the grid summary costs zero I/O.
	pruning := bb.setupPrune(a, opt, stats)
	if pruning && !gridMayMatch(a, opt.Ranges, bb) {
		stats.BlocksSkipped += (a.NumRows + rowsPerBlock - 1) / rowsPerBlock
		return nil
	}

	files, err := pool.open(a)
	if err != nil {
		return err
	}
	defer pool.fold(stats)
	defer bb.dropSpans() // borrowed views must not be retained past this AFC

	bb.shape(int(rowsPerBlock), len(opt.Cols), len(a.Segments))
	spans := bb.spans
	pred := opt.Pred
	// The batch path needs the predicate in vectorized form (or no
	// predicate at all); otherwise fall back to per-row evaluation.
	// Unfiltered row scans stay on fillColumn: decode + gather measured
	// +47 % on a 128 k-row SELECT * (EXPERIMENTS.md, "Why two decoders").
	vectorized := !opt.ScalarFilter && (opt.VecPred != nil || (agg != nil && pred == nil))
	constRead := false
	var rowsSkipped int64
	for base := int64(0); base < a.NumRows; base += rowsPerBlock {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := rowsPerBlock
		if base+n > a.NumRows {
			n = a.NumRows - base
		}
		if pruning && blockPrunable(a, bb.prune, base, n) {
			stats.BlocksSkipped++
			rowsSkipped += n
			continue
		}
		// Read each segment's span for this block.
		for si := range a.Segments {
			s := &a.Segments[si]
			var span, off int64
			if s.RowStride == 0 {
				if constRead {
					continue // constant segment already read for this AFC
				}
				span = s.RowBytes
				off = s.Offset
			} else {
				span = (n-1)*s.RowStride + s.RowBytes
				off = s.Offset + base*s.RowStride
			}
			// Zero-copy fast path: borrow the span straight from the
			// cache (block buffer or file mapping) when it lies within
			// one cache block. Borrowed spans are read-only and dropped
			// before the readers are released.
			if v, ok := files[si].(cache.Viewer); ok {
				if data, ok := v.ViewAt(off, int(span)); ok {
					spans[si] = data
					continue
				}
			}
			if cap(bb.own[si]) < int(span) {
				bb.own[si] = make([]byte, span)
			}
			buf := bb.own[si][:span]
			if _, err := files[si].ReadAt(buf, off); err != nil {
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					return fmt.Errorf("extractor: %s:%s: file shorter than layout requires (need %d bytes at offset %d)",
						s.Node, s.File, span, off)
				}
				return fmt.Errorf("extractor: reading %s:%s: %w", s.Node, s.File, err)
			}
			bb.own[si] = buf
			spans[si] = buf
		}
		constRead = true
		stats.RowsScanned += n

		if vectorized {
			// Decode the block into column vectors, narrow the selection
			// with the vectorized predicate, then deliver only survivors:
			// folded into the partial aggregates, or gather-materialized
			// into rows and delivered as one batch.
			bb.fillBatch(a, sources, spans, base, int(n))
			filterStart := time.Now()
			sel := query.Identity(bb.sel, int(n))
			if opt.VecPred != nil {
				sel = opt.VecPred.Eval(&bb.batch, sel, &bb.vscr)
			}
			bb.sel = sel
			stats.VectorBatches++
			stats.FilterNS += time.Since(filterStart).Nanoseconds()
			stats.RowsEmitted += int64(len(sel))
			if agg != nil {
				aggStart := time.Now()
				agg.ObserveBatch(&bb.batch, sel)
				stats.AggNS += time.Since(aggStart).Nanoseconds()
				continue
			}
			if len(sel) == 0 {
				continue
			}
			emitStart := time.Now()
			rows := bb.rows[:len(sel)]
			gatherRows(rows, &bb.batch, sel, opt.Cols)
			err := deliver(rows, false)
			stats.FilterNS += time.Since(emitStart).Nanoseconds()
			if err != nil {
				return err
			}
			continue
		}

		// Scalar path: fill the block column-major with kind-specialized
		// loops, filter row-wise, then deliver the survivors as one batch.
		rows := bb.rows[:n]
		for ci := range sources {
			src := &sources[ci]
			switch {
			case src.seg >= 0:
				seg := &a.Segments[src.seg]
				if seg.BigEndian {
					fillColumnBE(rows, ci, src.kind, spans[src.seg], src.attrOff, seg.RowStride)
				} else {
					fillColumn(rows, ci, src.kind, spans[src.seg], src.attrOff, seg.RowStride)
				}
			case src.rowDim != nil:
				rd := src.rowDim
				if rd.Kind.Integral() {
					for r := range rows {
						rows[r][ci] = schema.Value{Kind: rd.Kind, Int: rd.ValueAt(base + int64(r))}
					}
				} else {
					for r := range rows {
						rows[r][ci] = schema.Value{Kind: rd.Kind, Float: float64(rd.ValueAt(base + int64(r)))}
					}
				}
			default:
				for r := range rows {
					rows[r][ci] = src.implicit
				}
			}
		}

		filterStart := time.Now()
		if pred != nil {
			// Compact the survivors' headers; the matrix itself stays put.
			keep := bb.keep[:0]
			for _, row := range rows {
				if pred(row) {
					keep = append(keep, row)
				}
			}
			bb.keep, rows = keep, keep
		}
		stats.RowsEmitted += int64(len(rows))
		if agg != nil {
			// Aggregation time is attributed to its own stage, not
			// filter: one clock read splits the block between them.
			aggStart := time.Now()
			for _, row := range rows {
				agg.ObserveRow(row)
			}
			stats.FilterNS += aggStart.Sub(filterStart).Nanoseconds()
			stats.AggNS += time.Since(aggStart).Nanoseconds()
			continue
		}
		var err error
		if len(rows) > 0 {
			err = deliver(rows, false)
		}
		stats.FilterNS += time.Since(filterStart).Nanoseconds()
		if err != nil {
			return err
		}
	}
	for _, s := range a.Segments {
		if s.RowStride == 0 {
			if constRead {
				stats.BytesRead += s.RowBytes
			}
		} else {
			stats.BytesRead += s.RowBytes * (a.NumRows - rowsSkipped)
		}
	}
	return nil
}

// setupPrune resolves the AFC's sidecars and constrained stored
// attributes into bb.prune, counting one sidecar hit or miss per
// distinct file that stores at least one constrained attribute. It
// reports whether any pruning state is active for this AFC.
func (bb *blockBuf) setupPrune(a *afc.AFC, opt Options, stats *Stats) bool {
	if opt.Sparse == nil || len(opt.Ranges) == 0 {
		return false
	}
	if cap(bb.prune) < len(a.Segments) {
		next := make([]segPrune, len(a.Segments))
		copy(next, bb.prune)
		bb.prune = next
	}
	bb.prune = bb.prune[:len(a.Segments)]
	bb.files = bb.files[:0]
	active := false
	for si := range a.Segments {
		s := &a.Segments[si]
		p := &bb.prune[si]
		p.sc = nil
		p.attrs = p.attrs[:0]
		for _, at := range s.Attrs {
			if set := opt.Ranges.Get(at.Name); !set.IsFull() {
				p.attrs = append(p.attrs, pruneAttr{name: at.Name, set: set})
			}
		}
		if len(p.attrs) == 0 {
			continue
		}
		found := false
		for i := range bb.files {
			if bb.files[i].node == s.Node && bb.files[i].file == s.File {
				p.sc = bb.files[i].sc
				found = true
				break
			}
		}
		if !found {
			sc := opt.Sparse(s.Node, s.File)
			bb.files = append(bb.files, fileSidecar{node: s.Node, file: s.File, sc: sc})
			p.sc = sc
			if sc != nil {
				stats.SparseIndexHits++
			} else {
				stats.SparseIndexMisses++
			}
		}
		if p.sc != nil {
			active = true
		}
	}
	return active
}

// gridMayMatch consults each sidecar's multidimensional grid summary
// for the whole AFC. Soundness: a grid records the file's joint value
// tuples at common dimension coordinates, and an AFC row pairs
// attribute values at common dimension coordinates too, so constraining
// only the grid attributes this file's segments actually store in this
// AFC can never prune a surviving row. It returns false when some grid
// proves no row of the AFC can match.
func gridMayMatch(a *afc.AFC, ranges query.Ranges, bb *blockBuf) bool {
	for i := range bb.files {
		f := &bb.files[i]
		if f.sc == nil || f.sc.Grid == nil {
			continue
		}
		var reduced query.Ranges
		for _, attr := range f.sc.GridAttrs() {
			set := ranges.Get(attr)
			if set.IsFull() || !fileStoresAttr(a, f.node, f.file, attr) {
				continue
			}
			if reduced == nil {
				reduced = make(query.Ranges, 3)
			}
			reduced[attr] = set
		}
		if len(reduced) > 0 && !f.sc.GridMayMatch(reduced) {
			return false
		}
	}
	return true
}

func fileStoresAttr(a *afc.AFC, node, file, attr string) bool {
	for si := range a.Segments {
		s := &a.Segments[si]
		if s.Node != node || s.File != file {
			continue
		}
		for _, at := range s.Attrs {
			if at.Name == attr {
				return true
			}
		}
	}
	return false
}

// blockPrunable reports whether the zone maps prove the block starting
// at row base (n rows) holds no row satisfying the constraints: some
// constrained attribute's merged zone over the block's byte span
// misses its set entirely.
func blockPrunable(a *afc.AFC, prune []segPrune, base, n int64) bool {
	for si := range a.Segments {
		p := &prune[si]
		if p.sc == nil || len(p.attrs) == 0 {
			continue
		}
		s := &a.Segments[si]
		var off, span int64
		if s.RowStride == 0 {
			off, span = s.Offset, s.RowBytes
		} else {
			off = s.Offset + base*s.RowStride
			span = (n-1)*s.RowStride + s.RowBytes
		}
		for _, pa := range p.attrs {
			if !p.sc.SpanMayMatch(pa.name, off, span, pa.set) {
				return true
			}
		}
	}
	return false
}

// fillColumn decodes one attribute for every row of the block with a
// kind-specialized tight loop.
func fillColumn(rows []table.Row, ci int, kind schema.Kind, buf []byte, off, stride int64) {
	p := off
	switch kind {
	case schema.Char:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(int8(buf[p]))}
			p += stride
		}
	case schema.Short:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(int16(binary.LittleEndian.Uint16(buf[p : p+2])))}
			p += stride
		}
	case schema.Int:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(int32(binary.LittleEndian.Uint32(buf[p : p+4])))}
			p += stride
		}
	case schema.Long:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(binary.LittleEndian.Uint64(buf[p : p+8]))}
			p += stride
		}
	case schema.Float:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Float: float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[p : p+4])))}
			p += stride
		}
	case schema.Double:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Float: math.Float64frombits(binary.LittleEndian.Uint64(buf[p : p+8]))}
			p += stride
		}
	}
}

// fillColumnBE is fillColumn for big-endian segments (BYTEORDER { BIG }).
func fillColumnBE(rows []table.Row, ci int, kind schema.Kind, buf []byte, off, stride int64) {
	p := off
	switch kind {
	case schema.Char:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(int8(buf[p]))}
			p += stride
		}
	case schema.Short:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(int16(binary.BigEndian.Uint16(buf[p : p+2])))}
			p += stride
		}
	case schema.Int:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(int32(binary.BigEndian.Uint32(buf[p : p+4])))}
			p += stride
		}
	case schema.Long:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(binary.BigEndian.Uint64(buf[p : p+8]))}
			p += stride
		}
	case schema.Float:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Float: float64(math.Float32frombits(binary.BigEndian.Uint32(buf[p : p+4])))}
			p += stride
		}
	case schema.Double:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Float: math.Float64frombits(binary.BigEndian.Uint64(buf[p : p+8]))}
			p += stride
		}
	}
}
