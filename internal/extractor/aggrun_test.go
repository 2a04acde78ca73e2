package extractor

import (
	"context"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"datavirt/internal/afc"
	"datavirt/internal/cache"
	"datavirt/internal/filter"
	"datavirt/internal/query"
	"datavirt/internal/schema"
	"datavirt/internal/sqlparser"
	"datavirt/internal/table"
)

// prepareAgg compiles an aggregate query against sch the way core does:
// the working layout is every attribute the plan or the WHERE clause
// reads, in schema order, and both predicate forms are compiled
// against it. It returns the bound plan, the extraction options and the
// query's ranges (for AFC generation).
func prepareAgg(tb testing.TB, sch *schema.Schema, sql string) (*query.AggPlan, Options, query.Ranges) {
	tb.Helper()
	q := sqlparser.MustParse(sql)
	plan, err := query.BuildAggPlan(q, sch)
	if err != nil {
		tb.Fatal(err)
	}
	needed := map[string]bool{}
	for _, c := range plan.InputColumns() {
		needed[c] = true
	}
	for _, c := range sqlparser.ExprColumns(q.Where) {
		needed[c] = true
	}
	var work []schema.Attribute
	for _, a := range sch.Attrs() {
		if needed[a.Name] {
			work = append(work, a)
		}
	}
	lookup := func(name string) (int, bool) {
		for i, a := range work {
			if a.Name == name {
				return i, true
			}
		}
		return 0, false
	}
	if err := plan.Bind(lookup); err != nil {
		tb.Fatal(err)
	}
	reg := filter.NewRegistry()
	opt := Options{Cols: work}
	if opt.Pred, err = query.CompilePredicate(q.Where, lookup, reg); err != nil {
		tb.Fatal(err)
	}
	if opt.VecPred, err = query.CompileVectorPredicate(q.Where, lookup, reg); err != nil {
		tb.Fatal(err)
	}
	return plan, opt, query.ExtractRanges(q.Where)
}

// edgeKeys are the Long group keys of the scheduling test: two above
// 2^53 that differ in the last bit, ±2^62, and 7, which the WHERE
// clause drops.
var edgeKeys = []int64{1<<53 + 1, 1<<53 + 2, 1 << 62, -(1 << 62), 7}

// edgeRow returns row r of the scheduling test's file: K a Long key, G a
// Double key (±0 fold into one group, NaN is one group), L a Long above
// 2^53, and D a Double whose values depend on the key — magnitudes from
// 1e-300 to 1e300 that reach ExactSum's spill, ±Inf, NaN, and -0 alone.
func edgeRow(r int64) (k int64, g float64, l int64, d float64) {
	ki := r % int64(len(edgeKeys))
	k = edgeKeys[ki]
	g = []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, math.Inf(-1)}[(r/5)%5]
	l = []int64{1<<62 + r*1234567, -(1 << 61) - r, 1<<53 + r, math.MaxInt64 - r}[r%4]
	switch ki {
	case 0:
		d = []float64{1e300, 1, 1e-300, -1e300, 2.5e-17, 3e15, -7.25}[r%7]
	case 1:
		d = []float64{math.Inf(1), 0.1, math.Inf(-1), -0.3}[r%4]
	case 2:
		d = []float64{0.1, math.NaN(), 1e-300}[r%3]
	case 3:
		d = math.Copysign(0, -1)
	default:
		d = float64(r)
	}
	return k, g, l, d
}

// edgeAFCs writes the scheduling test's file under dir and returns AFCs
// of uneven sizes over it (some cross a 512-row block, one has a single
// row), in file order.
func edgeAFCs(t *testing.T, dir string) ([]afc.AFC, *schema.Schema) {
	t.Helper()
	sizes := []int64{100, 700, 50, 513, 300, 1, 900, 200, 64, 1030}
	var total int64
	for _, n := range sizes {
		total += n
	}
	const rowBytes = 32
	buf := make([]byte, 0, total*rowBytes)
	for r := int64(0); r < total; r++ {
		k, g, l, d := edgeRow(r)
		buf = schema.EncodeValueOrder(buf, schema.Value{Kind: schema.Long, Int: k}, false)
		buf = schema.EncodeValueOrder(buf, schema.Value{Kind: schema.Double, Float: g}, false)
		buf = schema.EncodeValueOrder(buf, schema.Value{Kind: schema.Long, Int: l}, false)
		buf = schema.EncodeValueOrder(buf, schema.Value{Kind: schema.Double, Float: d}, false)
	}
	if err := os.WriteFile(filepath.Join(dir, "edge.bin"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	sch := schema.MustNew("T", []schema.Attribute{
		{Name: "K", Kind: schema.Long}, {Name: "G", Kind: schema.Double},
		{Name: "L", Kind: schema.Long}, {Name: "D", Kind: schema.Double},
	})
	var afcs []afc.AFC
	var base int64
	for _, n := range sizes {
		seg := afc.Segment{Node: "n", File: "edge.bin", Offset: base * rowBytes, RowStride: rowBytes, RowBytes: rowBytes}
		for i, a := range sch.Attrs() {
			seg.Attrs = append(seg.Attrs, afc.SegAttr{Name: a.Name, Kind: a.Kind, Off: int64(i) * 8})
		}
		afcs = append(afcs, afc.AFC{NumRows: n, Node: "n", Segments: []afc.Segment{seg}})
		base += n
	}
	return afcs, sch
}

// TestAggregateSchedulingIndependent folds one plan over ten AFCs with
// every pool size from 1 to 4, through the vector and the scalar filter,
// and requires bit-identical finalized rows from all of them, on data
// holding NaN, ±Inf, -0, Longs above 2^53 and sums that need ExactSum's
// spill. The spill group is also checked against a math/big oracle.
func TestAggregateSchedulingIndependent(t *testing.T) {
	dir := t.TempDir()
	afcs, sch := edgeAFCs(t, dir)
	plan, opt, _ := prepareAgg(t, sch, "SELECT K, G, COUNT(*), SUM(L), MIN(L), MAX(L), AVG(L), "+
		"SUM(D), AVG(D), MIN(D), MAX(D) FROM T WHERE K <> 7 GROUP BY K, G")

	var want []table.Row
	for _, scalar := range []bool{false, true} {
		for workers := 1; workers <= 4; workers++ {
			o := opt
			o.Workers, o.ScalarFilter, o.BlockBytes = workers, scalar, 4096
			state, stats, err := RunAggregateContext(context.Background(), afcs, DirResolver(dir), o, plan)
			if err != nil {
				t.Fatalf("workers=%d scalar=%v: %v", workers, scalar, err)
			}
			if stats.ChunksRead != len(afcs) {
				t.Errorf("workers=%d scalar=%v: read %d chunks of %d", workers, scalar, stats.ChunksRead, len(afcs))
			}
			got := state.Finalize()
			if want == nil {
				want = got
				continue
			}
			assertBitIdentical(t, workers, scalar, want, got)
		}
	}

	// The data reaches what the test claims to cover.
	var sawNaN, sawNegZero, sawInf bool
	for _, row := range want {
		if row[0].Int == 7 {
			t.Fatalf("the WHERE clause kept key 7: %v", row)
		}
		sum := row[7].Float
		sawNaN = sawNaN || math.IsNaN(sum)
		sawNegZero = sawNegZero || (sum == 0 && math.Signbit(sum))
		sawInf = sawInf || math.IsInf(row[10].Float, 1)
	}
	if len(want) < 12 || !sawNaN || !sawNegZero || !sawInf {
		t.Fatalf("%d groups, NaN sum %v, -0 sum %v, +Inf max %v: the data misses its edge cases",
			len(want), sawNaN, sawNegZero, sawInf)
	}
	// SUM(D) of every (key 0, G) group is the correctly rounded exact sum.
	exact := map[uint64]*big.Float{}
	var total int64
	for _, a := range afcs {
		total += a.NumRows
	}
	for r := int64(0); r < total; r++ {
		k, g, _, d := edgeRow(r)
		if k != edgeKeys[0] {
			continue
		}
		bits := math.Float64bits(g + 0) // folds -0 into +0
		if math.IsNaN(g) {
			bits = math.Float64bits(math.NaN())
		}
		if exact[bits] == nil {
			exact[bits] = new(big.Float).SetPrec(4096)
		}
		exact[bits].Add(exact[bits], big.NewFloat(d))
	}
	checked := 0
	for _, row := range want {
		if row[0].Int != edgeKeys[0] {
			continue
		}
		bits := math.Float64bits(row[1].Float + 0)
		if math.IsNaN(row[1].Float) {
			bits = math.Float64bits(math.NaN())
		}
		ref, _ := exact[bits].Float64()
		if row[7].Float != ref {
			t.Errorf("key %d, G %v: SUM(D) = %v, exact %v", row[0].Int, row[1].Float, row[7].Float, ref)
		}
		checked++
	}
	if checked != len(exact) || checked == 0 {
		t.Errorf("checked %d spill groups of %d", checked, len(exact))
	}
}

// assertBitIdentical compares finalized rows kind by kind and bit by bit.
func assertBitIdentical(t *testing.T, workers int, scalar bool, want, got []table.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("workers=%d scalar=%v: %d groups, want %d", workers, scalar, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			a, b := want[i][j], got[i][j]
			if a.Kind != b.Kind || a.Int != b.Int || math.Float64bits(a.Float) != math.Float64bits(b.Float) {
				t.Fatalf("workers=%d scalar=%v: row %d col %d = %+v, want %+v", workers, scalar, i, j, b, a)
			}
		}
	}
}

// BenchmarkAggregate folds an L0-shaped GROUP BY (SUM/AVG/MAX over three
// of 22 Float attributes, one Int key, a range predicate) over 64 AFCs
// of 512 rows each, read through a warm block cache, with a one-worker
// pool and with the default pool.
func BenchmarkAggregate(b *testing.B) {
	const afcCount, rows, nattrs = 64, 512, 22
	const stride = 4 + nattrs*4
	dir := b.TempDir()
	buf := make([]byte, 0, afcCount*rows*stride)
	for r := 0; r < afcCount*rows; r++ {
		buf = schema.EncodeValueOrder(buf, schema.Value{Kind: schema.Int, Int: int64(r % 4)}, false)
		for a := 0; a < nattrs; a++ {
			v := float64(float32((r*31+a*7)%1000) / 1000)
			buf = schema.EncodeValueOrder(buf, schema.Value{Kind: schema.Float, Float: v}, false)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "l0.bin"), buf, 0o644); err != nil {
		b.Fatal(err)
	}
	attrs := []schema.Attribute{{Name: "REL", Kind: schema.Int}}
	for a := 0; a < nattrs; a++ {
		attrs = append(attrs, schema.Attribute{Name: "A" + string(rune('A'+a)), Kind: schema.Float})
	}
	sch := schema.MustNew("T", attrs)
	afcs := make([]afc.AFC, afcCount)
	for i := range afcs {
		seg := afc.Segment{Node: "n", File: "l0.bin", Offset: int64(i * rows * stride), RowStride: stride, RowBytes: stride}
		off := int64(0)
		for _, a := range attrs {
			seg.Attrs = append(seg.Attrs, afc.SegAttr{Name: a.Name, Kind: a.Kind, Off: off})
			off += int64(a.Kind.Size())
		}
		afcs[i] = afc.AFC{NumRows: rows, Node: "n", Segments: []afc.Segment{seg}}
	}
	plan, opt, _ := prepareAgg(b, sch, "SELECT REL, SUM(AA), AVG(AB), MAX(AC) FROM T WHERE AD > 0.25 GROUP BY REL")
	c := cache.New(cache.Config{MaxBytes: 2 * int64(len(buf))})
	defer c.Close()
	opt.Source = c
	if _, _, err := RunAggregateContext(context.Background(), afcs, DirResolver(dir), opt, plan); err != nil {
		b.Fatal(err)
	}
	for _, w := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=default", 0}} {
		b.Run(w.name, func(b *testing.B) {
			o := opt
			o.Workers = w.workers
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				if _, _, err := RunAggregateContext(context.Background(), afcs, DirResolver(dir), o, plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
