// Aggregate planning and partial-aggregate state for push-down
// execution. A parsed aggregate query compiles to an AggPlan; every
// execution site (a local run, or each cluster leg) feeds matching rows
// into an AggState, which holds per-group partial accumulators. Partials
// are mergeable and wire-encodable (the cluster's 'A' frames), and by
// construction — exact integer arithmetic, error-free float summation
// (ExactSum), commutative min/max — the merged result is value-identical
// to a single-node pass no matter how rows were partitioned across legs.
//
// Semantics: the system has no NULLs, so COUNT(x) == COUNT(*) and every
// accumulator in a group observes every row of the group (one count per
// group suffices). A query matching zero rows yields zero result rows —
// including global aggregates, where SQL would return one row of NULLs —
// which keeps local, cluster, and all-blocks-skipped executions
// identical. SUM over integral attributes uses wrapping int64 arithmetic
// (commutative, so still partition-independent).

package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"datavirt/internal/schema"
	"datavirt/internal/sqlparser"
)

// accKind selects the accumulator representation of one aggregate item.
type accKind int

const (
	accCount accKind = iota // COUNT: the shared group count
	accInt                  // SUM/MIN/MAX/AVG over an integral attribute
	accFloat                // MIN/MAX over a floating attribute
	accExact                // SUM/AVG over a floating attribute (ExactSum)
)

// AggSpec is one compiled aggregate select item.
type AggSpec struct {
	Func    sqlparser.AggFunc
	Col     string      // input attribute; empty for COUNT(*)
	InKind  schema.Kind // Invalid for COUNT(*)
	OutKind schema.Kind
	acc     accKind
}

// AggKey is one compiled GROUP BY key.
type AggKey struct {
	Col  string
	Kind schema.Kind
}

// AggPlan is a compiled aggregate query: grouping keys, aggregate
// accumulator specs, and the mapping from both onto the output columns.
type AggPlan struct {
	Keys []AggKey
	Aggs []AggSpec
	// out maps output column i to its source: out[i] >= 0 indexes Aggs,
	// out[i] < 0 indexes Keys as -out[i]-1.
	out       []int
	labels    []string
	outSchema *schema.Schema

	// Input positions resolved by Bind, in Keys/Aggs order.
	keyIdx []int
	aggIdx []int
	bound  bool
}

// BuildAggPlan compiles the aggregate shape of a parsed query against
// the table schema. The query must be an aggregate query (q.Aggregate()).
func BuildAggPlan(q *sqlparser.Query, sch *schema.Schema) (*AggPlan, error) {
	if !q.Aggregate() {
		return nil, fmt.Errorf("query: not an aggregate query")
	}
	p := &AggPlan{}
	keyPos := map[string]int{}
	for _, k := range q.GroupBy {
		kind, ok := sch.Kind(k)
		if !ok {
			return nil, fmt.Errorf("query: table %s has no attribute %q", sch.Name(), k)
		}
		if _, dup := keyPos[k]; dup {
			return nil, fmt.Errorf("query: duplicate GROUP BY column %s", k)
		}
		keyPos[k] = len(p.Keys)
		p.Keys = append(p.Keys, AggKey{Col: k, Kind: kind})
	}
	var attrs []schema.Attribute
	seenLabel := map[string]bool{}
	for _, it := range q.Items {
		label := it.String()
		if seenLabel[label] {
			return nil, fmt.Errorf("query: duplicate select item %s", label)
		}
		seenLabel[label] = true
		if it.Agg == sqlparser.AggNone {
			ki, ok := keyPos[it.Col]
			if !ok {
				return nil, fmt.Errorf("query: column %s in an aggregate select list must appear in GROUP BY", it.Col)
			}
			p.out = append(p.out, -ki-1)
			p.labels = append(p.labels, label)
			attrs = append(attrs, schema.Attribute{Name: label, Kind: p.Keys[ki].Kind})
			continue
		}
		spec := AggSpec{Func: it.Agg, Col: it.Col}
		if it.Star {
			if it.Agg != sqlparser.AggCount {
				return nil, fmt.Errorf("query: %s(*) is not supported", it.Agg)
			}
		} else {
			kind, ok := sch.Kind(it.Col)
			if !ok {
				return nil, fmt.Errorf("query: table %s has no attribute %q", sch.Name(), it.Col)
			}
			spec.InKind = kind
		}
		switch it.Agg {
		case sqlparser.AggCount:
			spec.OutKind, spec.acc = schema.Long, accCount
		case sqlparser.AggSum:
			if spec.InKind.Integral() {
				spec.OutKind, spec.acc = schema.Long, accInt
			} else {
				spec.OutKind, spec.acc = schema.Double, accExact
			}
		case sqlparser.AggMin, sqlparser.AggMax:
			spec.OutKind = spec.InKind
			if spec.InKind.Integral() {
				spec.acc = accInt
			} else {
				spec.acc = accFloat
			}
		case sqlparser.AggAvg:
			spec.OutKind = schema.Double
			if spec.InKind.Integral() {
				spec.acc = accInt
			} else {
				spec.acc = accExact
			}
		default:
			return nil, fmt.Errorf("query: unknown aggregate %v", it.Agg)
		}
		p.out = append(p.out, len(p.Aggs))
		p.labels = append(p.labels, label)
		attrs = append(attrs, schema.Attribute{Name: label, Kind: spec.OutKind})
		p.Aggs = append(p.Aggs, spec)
	}
	outSchema, err := schema.New(sch.Name(), attrs)
	if err != nil {
		return nil, fmt.Errorf("query: aggregate output schema: %w", err)
	}
	p.outSchema = outSchema
	return p, nil
}

// Labels returns the output column labels in select order (the rendered
// select items, e.g. "COUNT(*)").
func (p *AggPlan) Labels() []string { return p.labels }

// OutSchema returns the schema of the aggregate result rows.
func (p *AggPlan) OutSchema() *schema.Schema { return p.outSchema }

// InputColumns returns the distinct stored attributes the aggregation
// reads (group keys plus aggregate inputs), in first-appearance order.
func (p *AggPlan) InputColumns() []string {
	var out []string
	seen := map[string]bool{}
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, k := range p.Keys {
		add(k.Col)
	}
	for _, a := range p.Aggs {
		add(a.Col)
	}
	return out
}

// Bind resolves the plan's input attributes to positions in the working
// row/batch layout. It must be called once before building AggStates
// that observe rows or batches (merging encoded partials needs no
// binding beyond the plan shape).
func (p *AggPlan) Bind(lookup ColumnLookup) error {
	p.keyIdx = make([]int, len(p.Keys))
	for i, k := range p.Keys {
		idx, ok := lookup(k.Col)
		if !ok {
			return fmt.Errorf("query: unknown attribute %q", k.Col)
		}
		p.keyIdx[i] = idx
	}
	p.aggIdx = make([]int, len(p.Aggs))
	for i, a := range p.Aggs {
		if a.Col == "" {
			p.aggIdx[i] = -1
			continue
		}
		idx, ok := lookup(a.Col)
		if !ok {
			return fmt.Errorf("query: unknown attribute %q", a.Col)
		}
		p.aggIdx[i] = idx
	}
	p.bound = true
	return nil
}

// accCol holds one aggregate item's accumulators, one entry per group.
// Which slice is live depends on the spec's accKind; COUNT items use
// the shared group count and keep none.
type accCol struct {
	i []int64    // accInt
	f []float64  // accFloat
	x []ExactSum // accExact
}

// AggState accumulates per-group partial aggregates for one plan. It is
// not safe for concurrent use; parallel workers each hold their own
// state and Merge at the end.
//
// Groups are numbered densely in creation order, and group g's state is
// entry g of keyBits (nk words), counts and every accumulator column, so
// a batch kernel updates a group with one indexed access.
type AggState struct {
	plan    *AggPlan
	nk      int      // key words per group
	keyBits []uint64 // canonical key bits: the group's identity and wire form
	counts  []int64
	cols    []accCol // in plan.Aggs order

	// index is an open-addressing hash table over keyBits: an entry is a
	// group number plus one, zero is empty, and it stays at most half
	// full. shift turns a 64-bit hash into a position.
	index []int32
	shift uint

	// Per-call scratch: one row's key words, and for a batch every
	// selected row's key words, its group, and the positions in the
	// selection whose row created a group.
	rowKey []uint64
	kw     []uint64
	slots  []int32
	fresh  []int32
}

// NewAggState returns an empty partial-aggregate state for the plan.
func NewAggState(plan *AggPlan) *AggState {
	const indexBits = 4 // room for eight groups before the first doubling
	return &AggState{
		plan:   plan,
		nk:     len(plan.Keys),
		cols:   make([]accCol, len(plan.Aggs)),
		index:  make([]int32, 1<<indexBits),
		shift:  64 - indexBits,
		rowKey: make([]uint64, len(plan.Keys)),
	}
}

// Groups returns the number of groups currently held.
func (s *AggState) Groups() int { return len(s.counts) }

// floatKeyBits returns a float64's canonical bits for group-key
// identity: -0 folds into +0 and every NaN into one bit pattern, so
// equal-comparing keys land in the same group on every leg.
func floatKeyBits(f float64) uint64 {
	if f != f {
		f = math.NaN()
	}
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f)
}

// hashWord mixes one key word into a hash; the table uses the top bits,
// which a multiplicative hash spreads well even for small consecutive
// keys.
func hashWord(h, v uint64) uint64 {
	h = (h ^ v) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

func hashKey(w []uint64) uint64 {
	var h uint64
	for _, v := range w {
		h = hashWord(h, v)
	}
	return h
}

func equalWords(a, b []uint64) bool {
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// find returns the group whose canonical key words are w, creating it
// with zero accumulators when there is none.
func (s *AggState) find(w []uint64) (g int32, created bool) {
	nk := s.nk
	mask := len(s.index) - 1
	i := int(hashKey(w) >> s.shift)
	for ; s.index[i] != 0; i = (i + 1) & mask {
		g := s.index[i] - 1
		if equalWords(w, s.keyBits[int(g)*nk:]) {
			return g, false
		}
	}
	g = int32(len(s.counts))
	s.keyBits = append(s.keyBits, w...)
	s.counts = append(s.counts, 0)
	for ai := range s.cols {
		c := &s.cols[ai]
		switch s.plan.Aggs[ai].acc {
		case accInt:
			c.i = append(c.i, 0)
		case accFloat:
			c.f = append(c.f, 0)
		case accExact:
			c.x = append(c.x, ExactSum{})
		}
	}
	if 2*len(s.counts) > len(s.index) {
		s.rehash()
	} else {
		s.index[i] = g + 1
	}
	return g, true
}

// rehash doubles the index and re-enters every group.
func (s *AggState) rehash() {
	s.index = make([]int32, 2*len(s.index))
	s.shift--
	mask := len(s.index) - 1
	for g := range s.counts {
		i := int(hashKey(s.keyBits[g*s.nk:(g+1)*s.nk]) >> s.shift)
		for s.index[i] != 0 {
			i = (i + 1) & mask
		}
		s.index[i] = int32(g) + 1
	}
}

// ObserveBatch folds the selected rows of a batch into the state. The
// batch's columns use the layout the plan was bound against; integral
// key and aggregate-input columns must have their I vectors filled.
//
// It works a block at a time: one pass gives every selected row its
// group, then one straight-line kernel per aggregate runs over (column,
// selection, groups). Each kernel visits a group's rows in selection
// order, so the result is that of ObserveRow on the same rows.
func (s *AggState) ObserveBatch(b *Batch, sel []int32) {
	if len(sel) == 0 {
		return
	}
	if cap(s.slots) < len(sel) {
		s.slots = make([]int32, len(sel))
	}
	slots := s.slots[:len(sel)]
	s.assignGroups(b, sel, slots)
	countRows(s.counts, slots)
	p := s.plan
	for ai := range p.Aggs {
		spec := &p.Aggs[ai]
		acc := &s.cols[ai]
		if spec.acc == accCount {
			continue
		}
		c := &b.Cols[p.aggIdx[ai]]
		switch {
		case spec.acc == accExact:
			sumExact(acc.x, c.F, sel, slots)
		case spec.Func == sqlparser.AggMin || spec.Func == sqlparser.AggMax:
			s.foldExtreme(spec, acc, c, sel, slots)
		default: // integer SUM/AVG
			sumInt(acc.i, c.I, sel, slots)
		}
	}
}

// assignGroups fills slots[j] with the group of row sel[j], creating
// groups as they first appear and recording in s.fresh the positions j
// that did. A row whose key repeats the previous row's costs one
// compare; any other costs one probe of the index.
func (s *AggState) assignGroups(b *Batch, sel, slots []int32) {
	s.fresh = s.fresh[:0]
	nk := s.nk
	if nk == 1 {
		// One key word needs no staging: read it, compare it, probe.
		c := &b.Cols[s.plan.keyIdx[0]]
		var prev uint64
		g := int32(-1)
		if c.Kind.Integral() {
			for j, r := range sel {
				if bits := uint64(c.I[r]); bits != prev || g < 0 {
					prev, g = bits, s.group1(bits, j)
				}
				slots[j] = g
			}
		} else {
			for j, r := range sel {
				if bits := floatKeyBits(c.F[r]); bits != prev || g < 0 {
					prev, g = bits, s.group1(bits, j)
				}
				slots[j] = g
			}
		}
		return
	}
	// Stage every row's key words row-major, a column at a time.
	if cap(s.kw) < len(sel)*nk {
		s.kw = make([]uint64, len(sel)*nk)
	}
	kw := s.kw[:len(sel)*nk]
	for ki, idx := range s.plan.keyIdx {
		c := &b.Cols[idx]
		if c.Kind.Integral() {
			for j, r := range sel {
				kw[j*nk+ki] = uint64(c.I[r])
			}
		} else {
			for j, r := range sel {
				kw[j*nk+ki] = floatKeyBits(c.F[r])
			}
		}
	}
	var g int32
	for j := range slots {
		w := kw[j*nk : (j+1)*nk]
		if j == 0 || !equalWords(w, kw[(j-1)*nk:]) {
			var created bool
			if g, created = s.find(w); created {
				s.fresh = append(s.fresh, int32(j))
			}
		}
		slots[j] = g
	}
}

// group1 is find for a one-word key at selection position j: the hit
// path of the probe without the slices.
func (s *AggState) group1(bits uint64, j int) int32 {
	mask := len(s.index) - 1
	for i := int(hashWord(0, bits) >> s.shift); s.index[i] != 0; i = (i + 1) & mask {
		if g := s.index[i] - 1; s.keyBits[g] == bits {
			return g
		}
	}
	s.rowKey[0] = bits
	g, _ := s.find(s.rowKey)
	s.fresh = append(s.fresh, int32(j))
	return g
}

// countRows adds each group's number of rows in slots to its count, a
// run of one group at a time.
func countRows(counts []int64, slots []int32) {
	cur, n := slots[0], int64(0)
	for _, g := range slots {
		if g != cur {
			counts[cur] += n
			cur, n = g, 0
		}
		n++
	}
	counts[cur] += n
}

func sumInt(acc, col []int64, sel, slots []int32) {
	slots = slots[:len(sel)]
	for j, r := range sel {
		acc[slots[j]] += col[r]
	}
}

// sumExact is ExactSum.Add over a column, with the current group's heads
// held in locals for as long as consecutive rows stay in that group.
func sumExact(acc []ExactSum, col []float64, sel, slots []int32) {
	slots = slots[:len(sel)]
	cur := slots[0]
	hi, lo := -acc[cur].nhi, -acc[cur].nlo
	for j, r := range sel {
		if g := slots[j]; g != cur {
			acc[cur].nhi, acc[cur].nlo = -hi, -lo
			cur = g
			hi, lo = -acc[cur].nhi, -acc[cur].nlo
		}
		v := col[r]
		s, e := twoSum(hi, v)
		l, res := twoSum(lo, e)
		if res != 0 {
			acc[cur].nhi, acc[cur].nlo = -hi, -lo
			acc[cur].addSlow(v)
			hi, lo = -acc[cur].nhi, -acc[cur].nlo
			continue
		}
		hi, lo = s, l
	}
	acc[cur].nhi, acc[cur].nlo = -hi, -lo
}

// foldExtreme runs a MIN or MAX kernel over the selection. A group's
// first value is assigned as it is, not folded (one NaN stays the NaN it
// was; two make the canonical NaN), so the kernels run on the stretches
// between the rows that created a group.
func (s *AggState) foldExtreme(spec *AggSpec, acc *accCol, c *Vec, sel, slots []int32) {
	isMin := spec.Func == sqlparser.AggMin
	start := 0
	for k := 0; k <= len(s.fresh); k++ {
		end := len(sel)
		if k < len(s.fresh) {
			end = int(s.fresh[k])
		}
		switch {
		case spec.acc == accInt && isMin:
			minInt(acc.i, c.I, sel[start:end], slots[start:end])
		case spec.acc == accInt:
			maxInt(acc.i, c.I, sel[start:end], slots[start:end])
		case isMin:
			minFloat(acc.f, c.F, sel[start:end], slots[start:end])
		default:
			maxFloat(acc.f, c.F, sel[start:end], slots[start:end])
		}
		if end < len(sel) {
			if spec.acc == accInt {
				acc.i[slots[end]] = c.I[sel[end]]
			} else {
				acc.f[slots[end]] = c.F[sel[end]]
			}
		}
		start = end + 1
	}
}

func minInt(acc, col []int64, sel, slots []int32) {
	slots = slots[:len(sel)]
	for j, r := range sel {
		if v, g := col[r], slots[j]; v < acc[g] {
			acc[g] = v
		}
	}
}

func maxInt(acc, col []int64, sel, slots []int32) {
	slots = slots[:len(sel)]
	for j, r := range sel {
		if v, g := col[r], slots[j]; v > acc[g] {
			acc[g] = v
		}
	}
}

// minFloat and maxFloat are math.Min and math.Max as compare kernels:
// an ordered, unequal pair needs no call, and for the rest — a NaN, or
// equal values, where ±0 differ — the library defines the answer.
func minFloat(acc, col []float64, sel, slots []int32) {
	slots = slots[:len(sel)]
	for j, r := range sel {
		v, g := col[r], slots[j]
		switch cur := acc[g]; {
		case v > cur:
		case v < cur:
			acc[g] = v
		default:
			acc[g] = math.Min(cur, v)
		}
	}
}

func maxFloat(acc, col []float64, sel, slots []int32) {
	slots = slots[:len(sel)]
	for j, r := range sel {
		v, g := col[r], slots[j]
		switch cur := acc[g]; {
		case v < cur:
		case v > cur:
			acc[g] = v
		default:
			acc[g] = math.Max(cur, v)
		}
	}
}

// ObserveRow folds one materialized row (working layout) into the
// state — the scalar-path counterpart of ObserveBatch, used by the
// per-row baseline and as the oracle in differential tests.
func (s *AggState) ObserveRow(row []schema.Value) {
	p := s.plan
	for ki, idx := range p.keyIdx {
		v := row[idx]
		if v.Kind.Integral() {
			s.rowKey[ki] = uint64(v.Int)
		} else {
			s.rowKey[ki] = floatKeyBits(v.Float)
		}
	}
	g, first := s.find(s.rowKey)
	for ai := range p.Aggs {
		spec := &p.Aggs[ai]
		acc := &s.cols[ai]
		switch spec.acc {
		case accInt:
			acc.i[g] = foldInt(spec.Func, acc.i[g], row[p.aggIdx[ai]].Int, first)
		case accFloat:
			acc.f[g] = foldFloat(spec.Func, acc.f[g], row[p.aggIdx[ai]].AsFloat(), first)
		case accExact:
			acc.x[g].Add(row[p.aggIdx[ai]].AsFloat())
		}
	}
	s.counts[g]++
}

// foldInt folds v into an integer accumulator; first says the group has
// no value yet.
func foldInt(f sqlparser.AggFunc, a, v int64, first bool) int64 {
	switch f {
	case sqlparser.AggMin:
		if first || v < a {
			return v
		}
		return a
	case sqlparser.AggMax:
		if first || v > a {
			return v
		}
		return a
	}
	return a + v // SUM, AVG
}

// foldFloat folds v into a MIN or MAX accumulator. math.Min/Max
// propagate NaN and order ±0 consistently, so the fold is commutative —
// partition- and merge-order-independent.
func foldFloat(f sqlparser.AggFunc, a, v float64, first bool) float64 {
	switch {
	case first:
		return v
	case f == sqlparser.AggMin:
		return math.Min(a, v)
	}
	return math.Max(a, v)
}

// Merge folds another state (for the same plan shape) into s.
func (s *AggState) Merge(o *AggState) {
	for og := range o.counts {
		g, first := s.find(o.keyBits[og*o.nk : (og+1)*o.nk])
		for ai := range s.plan.Aggs {
			spec := &s.plan.Aggs[ai]
			acc, oacc := &s.cols[ai], &o.cols[ai]
			switch spec.acc {
			case accInt:
				acc.i[g] = foldInt(spec.Func, acc.i[g], oacc.i[og], first)
			case accFloat:
				acc.f[g] = foldFloat(spec.Func, acc.f[g], oacc.f[og], first)
			case accExact:
				acc.x[g].Merge(&oacc.x[og])
			}
		}
		s.counts[g] += o.counts[og]
	}
}

// keyValue renders one canonical key word as a value of the key's kind.
func keyValue(k AggKey, bits uint64) schema.Value {
	if k.Kind.Integral() {
		return schema.Value{Kind: k.Kind, Int: int64(bits)}
	}
	return schema.Value{Kind: k.Kind, Float: math.Float64frombits(bits)}
}

// Finalize renders the merged state as result rows in the plan's output
// schema, groups sorted by key values (integers exactly, floats with the
// single canonical NaN group last). Zero matching rows finalize to zero
// result rows, for global aggregates too.
func (s *AggState) Finalize() [][]schema.Value {
	p := s.plan
	nk := s.nk
	keys := make([]schema.Value, len(s.keyBits))
	for i, bits := range s.keyBits {
		keys[i] = keyValue(p.Keys[i%nk], bits)
	}
	order := make([]int, len(s.counts))
	for g := range order {
		order[g] = g
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := keys[order[i]*nk:], keys[order[j]*nk:]
		for k := 0; k < nk; k++ {
			if c := compareKey(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	out := make([][]schema.Value, len(order))
	for oi, g := range order {
		count := s.counts[g]
		row := make([]schema.Value, len(p.out))
		for i, ref := range p.out {
			if ref < 0 {
				row[i] = keys[g*nk-ref-1]
				continue
			}
			spec := &p.Aggs[ref]
			acc := &s.cols[ref]
			switch {
			case spec.Func == sqlparser.AggCount:
				row[i] = schema.Value{Kind: schema.Long, Int: count}
			case spec.Func == sqlparser.AggAvg && spec.acc == accInt:
				row[i] = schema.Value{Kind: schema.Double, Float: float64(acc.i[g]) / float64(count)}
			case spec.Func == sqlparser.AggAvg:
				row[i] = schema.Value{Kind: schema.Double, Float: acc.x[g].Value() / float64(count)}
			case spec.acc == accInt:
				row[i] = schema.Value{Kind: spec.OutKind, Int: acc.i[g]}
			case spec.acc == accFloat:
				row[i] = schema.Value{Kind: spec.OutKind, Float: acc.f[g]}
			default: // accExact SUM
				row[i] = schema.Value{Kind: spec.OutKind, Float: acc.x[g].Value()}
			}
		}
		out[oi] = row
	}
	return out
}

// compareKey orders canonical group-key values: integers exactly,
// floats numerically with NaN after everything.
func compareKey(a, b schema.Value) int {
	if a.Kind.Integral() {
		switch {
		case a.Int < b.Int:
			return -1
		case a.Int > b.Int:
			return 1
		}
		return 0
	}
	af, bf := a.Float, b.Float
	aNaN, bNaN := af != af, bf != bf
	switch {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return 1
	case bNaN:
		return -1
	case af < bf:
		return -1
	case af > bf:
		return 1
	}
	return 0
}

// Wire format of an encoded partial chunk ('A' frame payload):
//
//	uint32  ngroups
//	per group:
//	  per key:       8 bytes (canonical bits: int64 or Float64bits)
//	  count:         8 bytes (int64)
//	  per aggregate (COUNT items encode nothing):
//	    accInt:      8 bytes (int64)
//	    accFloat:    8 bytes (Float64bits)
//	    accExact:    1 flag byte (1 NaN | 2 +Inf | 4 -Inf),
//	                 uint32 nterms, nterms × 8 bytes
//
// All integers are little-endian. Each chunk is independently mergeable;
// a state encodes to one or more chunks of roughly targetBytes each.

// EncodeChunks serializes the state's groups into independently
// mergeable chunks of roughly targetBytes each. An empty state encodes
// to no chunks.
func (s *AggState) EncodeChunks(targetBytes int) [][]byte {
	if len(s.counts) == 0 {
		return nil
	}
	if targetBytes <= 0 {
		targetBytes = 256 << 10
	}
	var chunks [][]byte
	var buf []byte
	n := 0
	flush := func() {
		if n == 0 {
			return
		}
		binary.LittleEndian.PutUint32(buf[:4], uint32(n))
		chunks = append(chunks, buf)
		buf, n = nil, 0
	}
	for g, count := range s.counts {
		if buf == nil {
			buf = append(make([]byte, 0, targetBytes+512), 0, 0, 0, 0)
		}
		for _, bits := range s.keyBits[g*s.nk : (g+1)*s.nk] {
			buf = binary.LittleEndian.AppendUint64(buf, bits)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(count))
		for ai := range s.plan.Aggs {
			acc := &s.cols[ai]
			switch s.plan.Aggs[ai].acc {
			case accInt:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(acc.i[g]))
			case accFloat:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(acc.f[g]))
			case accExact:
				terms, nan, pos, neg := acc.x[g].Terms()
				var flags byte
				if nan {
					flags |= 1
				}
				if pos {
					flags |= 2
				}
				if neg {
					flags |= 4
				}
				buf = append(buf, flags)
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(terms)))
				for _, t := range terms {
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t))
				}
			}
		}
		n++
		if len(buf) >= targetBytes {
			flush()
		}
	}
	flush()
	return chunks
}

// MergeEncoded merges one encoded partial chunk into the state. Each
// group's byte extent is checked before any of it is folded, straight
// into the resident group.
func (s *AggState) MergeEncoded(data []byte) error {
	rd := wireReader{b: data}
	ngroups, err := rd.u32()
	if err != nil {
		return err
	}
	p := s.plan
	for gi := uint32(0); gi < ngroups; gi++ {
		off := rd.off
		if err := rd.skipGroup(p); err != nil {
			return err
		}
		for ki := range s.rowKey {
			s.rowKey[ki] = binary.LittleEndian.Uint64(data[off:])
			off += 8
		}
		g, first := s.find(s.rowKey)
		s.counts[g] += int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		for ai := range p.Aggs {
			spec := &p.Aggs[ai]
			acc := &s.cols[ai]
			switch spec.acc {
			case accInt:
				v := int64(binary.LittleEndian.Uint64(data[off:]))
				acc.i[g] = foldInt(spec.Func, acc.i[g], v, first)
				off += 8
			case accFloat:
				v := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
				acc.f[g] = foldFloat(spec.Func, acc.f[g], v, first)
				off += 8
			case accExact:
				x := &acc.x[g]
				flags := data[off]
				nterms := int(binary.LittleEndian.Uint32(data[off+1:]))
				off += 5
				for ; nterms > 0; nterms-- {
					x.AddTerm(math.Float64frombits(binary.LittleEndian.Uint64(data[off:])))
					off += 8
				}
				x.setFlags(flags&1 != 0, flags&2 != 0, flags&4 != 0)
			}
		}
	}
	if rd.remaining() != 0 {
		return fmt.Errorf("query: aggregate partial: %d trailing bytes", rd.remaining())
	}
	return nil
}

// wireReader is a bounds-checked little-endian cursor.
type wireReader struct {
	b   []byte
	off int
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

func (r *wireReader) skip(n int) error {
	if r.remaining() < n {
		return fmt.Errorf("query: aggregate partial: truncated payload")
	}
	r.off += n
	return nil
}

func (r *wireReader) u32() (uint32, error) {
	if err := r.skip(4); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(r.b[r.off-4:]), nil
}

// skipGroup advances past one encoded group of the plan's shape, or
// reports why the payload cannot hold it.
func (r *wireReader) skipGroup(p *AggPlan) error {
	if err := r.skip(8*len(p.Keys) + 8); err != nil {
		return err
	}
	for ai := range p.Aggs {
		switch p.Aggs[ai].acc {
		case accInt, accFloat:
			if err := r.skip(8); err != nil {
				return err
			}
		case accExact:
			if err := r.skip(1); err != nil {
				return err
			}
			nterms, err := r.u32()
			if err != nil {
				return err
			}
			if int(nterms) > r.remaining()/8 {
				return fmt.Errorf("query: aggregate partial: term count %d overruns payload", nterms)
			}
			r.off += 8 * int(nterms)
		}
	}
	return nil
}
