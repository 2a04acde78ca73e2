// Package storm models the STORM middleware of Narayanan et al. — "a
// suite of loosely coupled services" for data selection, partitioning
// and transfer over flat-file datasets on a parallel system (paper
// §2.3). In this reproduction the services map to:
//
//	query service        — core.Service.PrepareContext (SQL → plan)
//	data source service  — internal/extractor over aligned file chunks
//	indexing service     — internal/afc pruning + internal/index R-trees
//	filtering service    — internal/filter + compiled predicates
//	partition generation — this package's Partitioner implementations
//	data mover           — cluster.Coordinator.QueryPartitionedContext,
//	                       routing each tagged tuple to this package's Sinks
//
// The partition generation service "makes it possible ... to implement
// the data distribution scheme employed in the client program at the
// server"; the data mover "transfers selected data elements to
// destination processors based on the partitioning description".
package storm

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"datavirt/internal/table"
)

// Scheme selects a partition generation strategy.
type Scheme int

const (
	// RoundRobin deals rows to destinations cyclically.
	RoundRobin Scheme = iota
	// HashAttr routes by a hash of one attribute's value, keeping equal
	// values together.
	HashAttr
	// RangeAttr routes by comparing one attribute against ordered
	// boundaries: dest i gets values in [Bounds[i-1], Bounds[i]).
	RangeAttr
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case RoundRobin:
		return "round-robin"
	case HashAttr:
		return "hash"
	case RangeAttr:
		return "range"
	}
	return "unknown"
}

// PartitionSpec describes the client program's data distribution, as
// registered with the partition generation service.
type PartitionSpec struct {
	Scheme Scheme
	// NumDests is the number of client processors.
	NumDests int
	// Attr is the partitioning attribute (HashAttr, RangeAttr).
	Attr string
	// Bounds are the NumDests-1 ascending range boundaries (RangeAttr).
	Bounds []float64
}

// Partitioner assigns each row a destination processor.
type Partitioner interface {
	Dest(row table.Row) int
}

// ColumnLookup resolves an attribute name to a row index.
type ColumnLookup func(name string) (int, bool)

// maxDests caps NumDests. A node server stages a batch of rows per
// destination, so the spec it receives from the wire must not size that
// staging (1024 destinations × 512 rows of IPARS L0 is ≈ 46 MB).
const maxDests = 1024

// Validate checks what a spec can be checked for without a row layout:
// 1 ≤ NumDests ≤ 1024, and for RangeAttr NumDests-1 ascending bounds.
// A client calls it before sizing anything by NumDests.
func (spec PartitionSpec) Validate() error {
	if spec.NumDests < 1 {
		return fmt.Errorf("storm: partition spec needs at least one destination")
	}
	if spec.NumDests > maxDests {
		return fmt.Errorf("storm: partition spec has %d destinations, at most %d allowed", spec.NumDests, maxDests)
	}
	if spec.Scheme == RangeAttr {
		if len(spec.Bounds) != spec.NumDests-1 {
			return fmt.Errorf("storm: range partitioning needs %d bounds, got %d",
				spec.NumDests-1, len(spec.Bounds))
		}
		if !sort.Float64sAreSorted(spec.Bounds) {
			return fmt.Errorf("storm: range bounds must be ascending")
		}
	}
	return nil
}

// NewPartitioner validates a spec and builds its partitioner against a
// row layout.
func NewPartitioner(spec PartitionSpec, lookup ColumnLookup) (Partitioner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Scheme {
	case RoundRobin:
		return &roundRobin{n: spec.NumDests}, nil
	case HashAttr:
		idx, ok := lookup(spec.Attr)
		if !ok {
			return nil, fmt.Errorf("storm: hash partitioning on unknown attribute %q", spec.Attr)
		}
		return &hashPart{idx: idx, n: spec.NumDests}, nil
	case RangeAttr:
		idx, ok := lookup(spec.Attr)
		if !ok {
			return nil, fmt.Errorf("storm: range partitioning on unknown attribute %q", spec.Attr)
		}
		return &rangePart{idx: idx, bounds: spec.Bounds}, nil
	}
	return nil, fmt.Errorf("storm: unknown partition scheme %d", spec.Scheme)
}

type roundRobin struct {
	mu   sync.Mutex
	next int //dvlint:guardedby mu
	n    int // immutable after construction
}

func (r *roundRobin) Dest(table.Row) int {
	r.mu.Lock()
	d := r.next
	r.next = (r.next + 1) % r.n
	r.mu.Unlock()
	return d
}

type hashPart struct {
	idx, n int
}

func (h *hashPart) Dest(row table.Row) int {
	// SplitMix64 finalizer: integer-valued floats differ only in high
	// mantissa bits, so mix thoroughly before reducing.
	x := math.Float64bits(row[h.idx].AsFloat())
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(h.n))
}

type rangePart struct {
	idx    int
	bounds []float64
}

func (r *rangePart) Dest(row table.Row) int {
	v := row[r.idx].AsFloat()
	// Destination = index of the first boundary strictly greater than v,
	// so dest i covers [Bounds[i-1], Bounds[i]).
	return sort.Search(len(r.bounds), func(i int) bool { return v < r.bounds[i] })
}

// Sink receives the rows of one destination processor.
type Sink interface {
	// Send delivers one row under the same reuse contract as
	// extractor.EmitFunc: the slice is reused by the caller after Send
	// returns, so a sink that retains the row must copy it.
	Send(row table.Row) error
	// Close flushes and finalizes the sink.
	Close() error
}

// SliceSink collects rows in memory (copies them).
type SliceSink struct {
	mu sync.Mutex
	// Rows is guarded by mu while senders are active; read it only
	// after the query has completed. (Cross-package readers are outside
	// guardedby's scope.)
	Rows []table.Row //dvlint:guardedby mu
}

// Send implements Sink.
func (s *SliceSink) Send(row table.Row) error {
	s.mu.Lock()
	s.Rows = append(s.Rows, append(table.Row(nil), row...))
	s.mu.Unlock()
	return nil
}

// Close implements Sink.
func (s *SliceSink) Close() error { return nil }

// FuncSink adapts a function to Sink.
type FuncSink func(row table.Row) error

// Send implements Sink.
func (f FuncSink) Send(row table.Row) error { return f(row) }

// Close implements Sink.
func (FuncSink) Close() error { return nil }
