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
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"datavirt/internal/afc"
	"datavirt/internal/cache"
	"datavirt/internal/obs"
	"datavirt/internal/query"
	"datavirt/internal/schema"
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

// EmitFunc receives each surviving row.
//
// Delivery and row-reuse contract (the one canonical statement; every
// emitting API in this module — RunBatchesContext, core.Prepared's
// RunContext, the runner handed to core.NewRows, the cluster
// coordinator's callbacks, and storm.Sink.Send — follows it). Rows
// travel a block at a time: the survivors of one extraction block, the
// rows of one wire frame, or an aggregate's finalized groups reach a
// BatchFunc as one batch, and an EmitFunc sees the same batches
// unrolled row by row (PerRow). Every batch and every row is borrowed:
// the row slices and their backing array belong to the producer, which
// overwrites them once the call returns, so a receiver that retains
// rows beyond the call copies the batch once with table.CopyRows. The
// core.Rows cursor hands batches out in place: its deliver call returns
// only once the consumer's Next has moved past the batch, and its Row
// is valid until the next Next or Close.
type EmitFunc func(row table.Row) error

// BatchFunc receives one batch of rows; see EmitFunc for the reuse
// contract. rows is never empty.
type BatchFunc func(rows []table.Row) error

// PerRow unrolls batch delivery into per-row emit calls — the one place
// a per-row callback API is laid over the block-granular pipeline.
func PerRow(emit EmitFunc) BatchFunc {
	return func(rows []table.Row) error {
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
	// BlockBytes bounds the I/O buffer per segment and so the rows of
	// an extraction block (see BlockRows).
	BlockBytes int
	// Workers bounds RunAggregateContext's fold pool (default GOMAXPROCS
	// capped at 8). Row runs use the calling goroutine alone.
	Workers int
	// Source supplies byte readers for segment files — typically the
	// node's shared block cache (*cache.Cache, see internal/cache), so
	// repeated and overlapping queries reuse resident blocks. nil uses
	// a run-scoped passthrough source: direct reads, but open handles
	// are still pooled across the run's AFCs instead of reopening the
	// file per chunk.
	Source cache.Source
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
// each keeps its own reader and so its own block memo.
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
// the run's record after each AFC, so totals match the unpooled accounting.
type segPool struct {
	src     cache.Source
	resolve Resolver
	readers map[segKey]*poolEntry
	scratch []cache.Reader // per-AFC reader slice, reused across open calls
	dups    map[segKey]int // per-AFC occurrence counts, reused (dup field zero)
}

type poolEntry struct {
	r      cache.Reader
	folded cache.Counters // counter values already folded into the record
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
func (p *segPool) fold(stats *obs.QueryStats) {
	for _, e := range p.readers {
		c := e.r.Counters()
		stats.CacheHits += c.Hits - e.folded.Hits
		stats.CacheMisses += c.Misses - e.folded.Misses
		stats.FSBytesRead += c.BytesRead - e.folded.BytesRead
		stats.CacheBytesServed += c.BytesServed - e.folded.BytesServed
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
// AFCs in plan order on the calling goroutine and hands each block's
// surviving rows to deliver as one batch (wrap a per-row
// callback with PerRow), so rows arrive in plan order. Cancelling ctx
// stops the run between block reads and returns the context's error.
//
// The returned record holds the extractor's counters: chunks read,
// payload bytes, rows scanned and emitted, cache and vector
// counters, and filter and aggregate times. The plan-side fields stay
// zero for the caller to set.
func RunBatchesContext(ctx context.Context, afcs []afc.AFC, resolver Resolver, opt Options, deliver BatchFunc) (obs.QueryStats, error) {
	src, srcDone := runSource(opt)
	defer srcDone()
	var stats obs.QueryStats
	pool := newSegPool(src, resolver)
	defer pool.release()
	bb := blockBufs.Get().(*blockBuf)
	for i := range afcs {
		if err := extractOne(ctx, &afcs[i], pool, opt, bb, &stats, nil, deliver); err != nil {
			return stats, err
		}
	}
	// Only a clean run recycles its block: after an error the consumer
	// may still be reading the batch it was last lent.
	blockBufs.Put(bb)
	return stats, nil
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

// MaxBatchRows caps the rows of one extraction block, and so of one
// delivered batch: a batch is one block's survivors.
const MaxBatchRows = 512

// blockBuf holds the reusable block-materialization state of one
// extraction goroutine: a column-major-filled matrix of rows plus the
// per-segment byte buffers.
//
// Buffer-ownership discipline: spans holds the bytes each decode loop
// reads from, and may alias a cache-owned block buffer borrowed
// through cache.Viewer.ViewAt. Borrowed spans are only valid while the
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

	// Vectorized-filter state: the column-vector batch, the selection
	// index vector, and the evaluator's scratch buffers — all reused
	// across blocks so the hot loop stays allocation-free.
	batch query.Batch
	sel   []int32
	vscr  query.VectorScratch
}

// blockBufs recycles blockBufs across runs: for a selective query,
// allocating a block's row matrix and column vectors costs as much as
// filling them.
var blockBufs = sync.Pool{New: func() any { return new(blockBuf) }}

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

// BlockRows is the rows per extraction block of chunk a: blockBytes
// (defaulting to 1 MiB) divided by the widest segment stride (a
// constant segment counts its RowBytes), at least one and at most
// MaxBatchRows. Blocks start at row 0 of the chunk, one every BlockRows
// rows, so the planner's sparse pruning, which decides block by block,
// and the extractor, which reads block by block, agree on where each
// block lies.
func BlockRows(a *afc.AFC, blockBytes int) int64 {
	if blockBytes <= 0 {
		blockBytes = defaultBlockBytes
	}
	maxStride := int64(1)
	for _, s := range a.Segments {
		st := s.RowStride
		if st == 0 {
			st = s.RowBytes
		}
		maxStride = max(maxStride, st)
	}
	return min(max(int64(blockBytes)/maxStride, 1), MaxBatchRows)
}

// extractOne streams one AFC: it reads the block's byte spans through
// the segment readers (cache-backed or passthrough), fills the block
// column by column with kind-specialized tight loops (the run-time
// counterpart of the generated extraction code's straight-line
// decoding), then filters and delivers rows. The context is checked
// between blocks, bounding cancellation latency to one block read
// (≤ MaxBatchRows rows).
//
// Delivery has three modes. With a vectorized predicate the block is
// decoded into column vectors, the predicate narrows a selection index
// vector, and only surviving rows are materialized. With agg set,
// selected rows are folded straight into the partial-aggregate state
// and never materialized at all. Otherwise (or under
// Options.ScalarFilter) the original fill-every-row, per-row-Pred path
// runs. Either way a block's survivors reach deliver as one batch (see
// EmitFunc) when the block ends, so a selective query's
// first row is not held back waiting for a fuller batch.
func extractOne(ctx context.Context, a *afc.AFC, pool *segPool, opt Options, bb *blockBuf, stats *obs.QueryStats, agg *query.AggState, deliver BatchFunc) error {
	stats.ChunksRead++
	if a.NumRows == 0 {
		return nil
	}
	sources, err := bind(a, opt.Cols, bb.srcs)
	if err != nil {
		return err
	}
	bb.srcs = sources

	rowsPerBlock := BlockRows(a, opt.BlockBytes)
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
	// Unfiltered row scans stay on table.FillColumn: decode + gather measured
	// +47 % on a 128 k-row SELECT * (EXPERIMENTS.md, "Why two decoders").
	vectorized := !opt.ScalarFilter && (opt.VecPred != nil || (agg != nil && pred == nil))
	constRead := false
	for base := int64(0); base < a.NumRows; base += rowsPerBlock {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := rowsPerBlock
		if base+n > a.NumRows {
			n = a.NumRows - base
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
			stats.FilterTime += time.Since(filterStart)
			stats.RowsEmitted += int64(len(sel))
			if agg != nil {
				aggStart := time.Now()
				agg.ObserveBatch(&bb.batch, sel)
				stats.AggTime += time.Since(aggStart)
				continue
			}
			if len(sel) == 0 {
				continue
			}
			emitStart := time.Now()
			rows := bb.rows[:len(sel)]
			gatherRows(rows, &bb.batch, sel, opt.Cols)
			err := deliver(rows)
			stats.FilterTime += time.Since(emitStart)
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
					table.FillColumn(rows, ci, src.kind, spans[src.seg], src.attrOff, seg.RowStride)
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
			stats.FilterTime += aggStart.Sub(filterStart)
			stats.AggTime += time.Since(aggStart)
			continue
		}
		var err error
		if len(rows) > 0 {
			err = deliver(rows)
		}
		stats.FilterTime += time.Since(filterStart)
		if err != nil {
			return err
		}
	}
	stats.BytesRead += a.Bytes()
	return nil
}

// fillColumnBE is table.FillColumn for big-endian segments (BYTEORDER { BIG }).
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
