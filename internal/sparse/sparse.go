// Package sparse implements the persistent sparse block index: a
// versioned, immutable sidecar file written once beside each DATASPACE
// data file, holding per-block min/max zone maps for the file's stored
// attributes plus a coarse multidimensional grid summary over up to
// three spatially meaningful attributes. It is the within-chunk
// counterpart of the paper's indexing service: the chunk index prunes
// at aligned-file-chunk granularity, and the sidecar lets the planner
// (core.Prepared.Chunks) drop a chunk or cut it into runs of the
// extraction blocks that may hold a matching row, before any data file
// is read.
//
// Pruning safety rests on two conservative facts. First, query.Ranges
// is an over-approximation of the WHERE clause: every surviving row has
// each constrained attribute inside its set, so a block whose recorded
// [min, max] for that attribute misses the set cannot contribute a row.
// Second, zone blocks are byte-granular over the data file, so merging
// the zones of every block a read span overlaps only widens the bound —
// a widened bound can fail to prune, never prune wrongly. The grid
// summary is sound for a row only when every constrained grid attribute
// is read from the same file (the occupancy bitmap records joint value
// tuples at a common element index); callers must check that sourcing
// condition before consulting it.
//
// The on-disk format (see codec.go) ends in a fixed-size trailer that
// locates the zone-map and grid sections, so opening a sidecar reads
// the trailer and the two sections directly and never scans data.
package sparse

import (
	"math"

	"datavirt/internal/query"
)

// Suffix is appended to a data file's path to name its sidecar.
const Suffix = ".dvsx"

// DefaultBlockBytes is the zone-map block granularity used when a
// build does not choose one: small enough that a selective query skips
// most of a multi-megabyte file, large enough that the sidecar stays a
// negligible fraction of the data.
const DefaultBlockBytes = 64 << 10

// AttrZones is the zone map of one attribute: Min[b] and Max[b] bound
// the attribute's values whose encoded bytes touch byte block b of the
// data file. A block holding no element of the attribute has the empty
// zone (Min = +Inf, Max = -Inf).
type AttrZones struct {
	Name string
	Min  []float64
	Max  []float64
}

// Grid is the coarse multidimensional summary: the data file's joint
// (attr_1, ..., attr_d) value tuples, bucketed into Cells[i] equal-width
// cells per dimension between the observed Min[i] and Max[i], with one
// occupancy bit per cell tuple (row-major, dimension 0 outermost).
type Grid struct {
	Attrs []string
	Min   []float64
	Max   []float64
	Cells []int
	Bits  []uint64
}

// Sidecar is one decoded sparse index.
type Sidecar struct {
	// DataBytes is the size of the data file the sidecar was built from;
	// readers compare it against the live file to detect staleness.
	DataBytes int64
	// BlockBytes is the zone-map block granularity.
	BlockBytes int64
	// NumBlocks is len(zone slices): ceil(DataBytes / BlockBytes).
	NumBlocks int64
	// Attrs holds one zone map per indexed attribute.
	Attrs []AttrZones
	// Grid is the multidimensional summary, nil when the file has fewer
	// than two co-dimensional attributes to summarize.
	Grid *Grid
}

// Zones returns the zone map for attr, or nil when the sidecar does
// not index it.
func (sc *Sidecar) Zones(attr string) *AttrZones {
	for i := range sc.Attrs {
		if sc.Attrs[i].Name == attr {
			return &sc.Attrs[i]
		}
	}
	return nil
}

// emptyZone reports whether the zone holds no recorded values.
func emptyZone(lo, hi float64) bool {
	return !(lo <= hi) // catches Min > Max and NaN
}

// SpanMayMatch reports whether the byte span [off, off+span) of the
// data file may hold a value of attr inside set. It merges the zones of
// every block the span overlaps; spans reaching outside the recorded
// blocks, attributes the sidecar does not index, and empty or invalid
// zones all answer true — pruning is only ever an optimization.
func (sc *Sidecar) SpanMayMatch(attr string, off, span int64, set query.Set) bool {
	z := sc.Zones(attr)
	if z == nil || span <= 0 || sc.BlockBytes <= 0 {
		return true
	}
	b0 := off / sc.BlockBytes
	b1 := (off + span - 1) / sc.BlockBytes
	if b0 < 0 || b1 >= int64(len(z.Min)) {
		return true // span outside the recorded blocks: no evidence
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for b := b0; b <= b1; b++ {
		if z.Min[b] < lo {
			lo = z.Min[b]
		}
		if z.Max[b] > hi {
			hi = z.Max[b]
		}
	}
	if emptyZone(lo, hi) {
		// The span's blocks claim to hold no values of an attribute the
		// layout places there: the sidecar is inconsistent with the
		// layout, so refuse to prune on it.
		return true
	}
	return set.Overlaps(query.Interval{Lo: lo, Hi: hi})
}

// GridAttrs returns the grid's dimension attributes, nil without a grid.
func (sc *Sidecar) GridAttrs() []string {
	if sc.Grid == nil {
		return nil
	}
	return sc.Grid.Attrs
}

// GridMayMatch reports whether any joint value tuple recorded in the
// grid satisfies every dimension's constraint set. Callers must ensure
// every *constrained* grid attribute is sourced from this file by the
// rows being tested (see the package comment); unconstrained dimensions
// pass every cell. A sidecar without a grid answers true.
func (sc *Sidecar) GridMayMatch(ranges query.Ranges) bool {
	g := sc.Grid
	if g == nil || len(g.Attrs) == 0 {
		return true
	}
	// Per-dimension allowed-cell masks. A cell covers the closed
	// interval [min + c*w, min + (c+1)*w]; closed on both ends keeps
	// boundary values conservative.
	allowed := make([][]bool, len(g.Attrs))
	constrainedAny := false
	for d, attr := range g.Attrs {
		cells := g.Cells[d]
		if cells <= 0 || len(g.Bits) == 0 {
			return true // malformed grid: refuse to prune
		}
		set := ranges.Get(attr)
		mask := make([]bool, cells)
		if set.IsFull() {
			for c := range mask {
				mask[c] = true
			}
			allowed[d] = mask
			continue
		}
		constrainedAny = true
		w := (g.Max[d] - g.Min[d]) / float64(cells)
		if !(w >= 0) || math.IsInf(w, 0) {
			return true // degenerate bounds: refuse to prune
		}
		for c := range mask {
			iv := query.Interval{Lo: g.Min[d] + float64(c)*w, Hi: g.Min[d] + float64(c+1)*w}
			if w == 0 {
				iv = query.Interval{Lo: g.Min[d], Hi: g.Max[d]}
			}
			mask[c] = set.Overlaps(iv)
		}
		allowed[d] = mask
	}
	if !constrainedAny {
		return true
	}
	// Scan occupied cell tuples (row-major over dimensions).
	total := 1
	for _, c := range g.Cells {
		total *= c
	}
	if total > len(g.Bits)*64 {
		return true // bitmap shorter than the cell space: malformed
	}
	for i := 0; i < total; i++ {
		if g.Bits[i>>6]&(1<<uint(i&63)) == 0 {
			continue
		}
		idx := i
		ok := true
		for d := len(g.Cells) - 1; d >= 0; d-- {
			c := idx % g.Cells[d]
			idx /= g.Cells[d]
			if !allowed[d][c] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
