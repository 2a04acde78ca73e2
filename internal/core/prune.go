package core

import (
	"context"
	"slices"

	"datavirt/internal/afc"
	"datavirt/internal/extractor"
	"datavirt/internal/obs"
	"datavirt/internal/query"
	"datavirt/internal/sparse"
)

// Chunks chooses the aligned file chunks one execution of p under opt
// reads: the plan's chunks on opt.NodeFilter's node, cut by the sparse
// sidecars of this service's files unless opt.NoSparse is set or no
// attribute is constrained. A chunk that a grid summary rules out is
// dropped; one whose zone maps rule out some extraction blocks
// (extractor.BlockRows) is cut into runs of the surviving blocks. It
// reads no data file and reports each unusable sidecar to the context's
// tracer. The record holds ChunksPlanned, BlocksSkipped and one sidecar
// hit or miss per distinct file storing a constrained attribute.
func (p *Prepared) Chunks(ctx context.Context, opt Options) ([]afc.AFC, obs.QueryStats) {
	stats := obs.QueryStats{ChunksPlanned: len(p.AFCs)}
	afcs := p.AFCs
	if opt.NodeFilter != "" {
		afcs = FilterByNode(afcs, opt.NodeFilter)
	}
	if opt.NoSparse || len(p.Ranges) == 0 {
		return afcs, stats
	}
	pr := &pruner{svc: p.svc, ranges: p.Ranges, tracer: obs.TracerFrom(ctx), blockBytes: opt.BlockBytes,
		stats: &stats, files: map[[2]string]*sparse.Sidecar{}}
	// out stays nil, and the plan's slice is returned untouched, until
	// a chunk is dropped or cut: until then each verdict goes to scratch.
	var out, scratch []afc.AFC
	for i := range afcs {
		if out != nil {
			out = pr.cut(out, &afcs[i])
		} else if scratch = pr.cut(scratch[:0], &afcs[i]); len(scratch) != 1 || scratch[0].NumRows != afcs[i].NumRows {
			out = append(append(make([]afc.AFC, 0, len(afcs)), afcs[:i]...), scratch...)
		}
	}
	if out == nil {
		return afcs, stats
	}
	return out, stats
}

// pruner is the sparse-sidecar state of one Chunks call.
type pruner struct {
	svc        *Service
	ranges     query.Ranges
	tracer     obs.Tracer
	blockBytes int
	stats      *obs.QueryStats
	files      map[[2]string]*sparse.Sidecar // (node, file) -> usable sidecar or nil
	// scs holds, per segment of the current chunk, its file's sidecar;
	// nil when the segment stores no constrained attribute.
	scs []*sparse.Sidecar
}

// constrained returns attr's constraint set and whether it is one.
func (pr *pruner) constrained(attr string) (query.Set, bool) {
	set, ok := pr.ranges[attr]
	return set, ok && !set.IsFull()
}

// cut appends to out what survives of chunk a: the whole chunk, the
// runs of its surviving extraction blocks, or nothing.
func (pr *pruner) cut(out []afc.AFC, a *afc.AFC) []afc.AFC {
	if a.NumRows == 0 || !pr.setup(a) {
		return append(out, *a)
	}
	rows := extractor.BlockRows(a, pr.blockBytes)
	if !pr.gridMayMatch(a) {
		pr.stats.BlocksSkipped += (a.NumRows + rows - 1) / rows
		return out
	}
	start := int64(0) // the first row after the last skipped block
	for base := int64(0); base < a.NumRows; base += rows {
		if pr.blockPrunable(a, base, min(rows, a.NumRows-base)) {
			pr.stats.BlocksSkipped++
			if base > start {
				out = append(out, a.Slice(start, base-start))
			}
			start = base + rows
		}
	}
	if start == 0 {
		return append(out, *a)
	}
	if start < a.NumRows {
		out = append(out, a.Slice(start, a.NumRows-start))
	}
	return out
}

// setup fills pr.scs for chunk a and reports whether any segment has a
// sidecar to prune with.
func (pr *pruner) setup(a *afc.AFC) bool {
	pr.scs = pr.scs[:0]
	active := false
	for si := range a.Segments {
		s := &a.Segments[si]
		var sc *sparse.Sidecar
		for _, at := range s.Attrs {
			if _, ok := pr.constrained(at.Name); ok {
				sc = pr.sidecar(s.Node, s.File)
				break
			}
		}
		pr.scs = append(pr.scs, sc)
		active = active || sc != nil
	}
	return active
}

// sidecar returns the file's usable sidecar or nil. The first request
// of an execution loads it, counts the hit or miss and reports an
// unusable sidecar.
func (pr *pruner) sidecar(node, file string) *sparse.Sidecar {
	key := [2]string{node, file}
	if sc, ok := pr.files[key]; ok {
		return sc
	}
	e := pr.svc.loadSidecar(node, file)
	if e.errMsg != "" {
		obs.ReportSparseFallback(pr.tracer, file, e.errMsg)
	}
	if e.sc != nil {
		pr.stats.SparseIndexHits++
	} else {
		pr.stats.SparseIndexMisses++
	}
	pr.files[key] = e.sc
	return e.sc
}

// gridMayMatch consults each file's grid summary for the whole chunk,
// constraining only the attributes the file stores in the chunk. A grid
// records its file's joint value tuples at common dimension
// coordinates, and a chunk row pairs values at common dimension
// coordinates too, so this can never rule out a surviving row. It
// returns false when some grid proves that no row of the chunk matches.
func (pr *pruner) gridMayMatch(a *afc.AFC) bool {
	for si, sc := range pr.scs {
		if sc == nil || sc.Grid == nil || slices.Contains(pr.scs[:si], sc) {
			continue
		}
		stored := query.Ranges{}
		for sj := si; sj < len(pr.scs); sj++ {
			for _, at := range a.Segments[sj].Attrs {
				if set, ok := pr.constrained(at.Name); ok && pr.scs[sj] == sc {
					stored[at.Name] = set
				}
			}
		}
		if !sc.GridMayMatch(stored) {
			return false
		}
	}
	return true
}

// blockPrunable reports whether the zone maps prove that the block of n
// rows starting at row base holds no matching row: some constrained
// attribute's merged zone over the block's byte span misses its set.
func (pr *pruner) blockPrunable(a *afc.AFC, base, n int64) bool {
	for si, sc := range pr.scs {
		if sc == nil {
			continue
		}
		s := &a.Segments[si]
		off, span := s.Offset, s.RowBytes
		if s.RowStride != 0 {
			off, span = off+base*s.RowStride, span+(n-1)*s.RowStride
		}
		for _, at := range s.Attrs {
			if set, ok := pr.constrained(at.Name); ok && !sc.SpanMayMatch(at.Name, off, span, set) {
				return true
			}
		}
	}
	return false
}
