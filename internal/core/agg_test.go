package core

import (
	"math"
	"testing"

	"datavirt/internal/query"
	"datavirt/internal/table"
)

// rowsEqual asserts two result sets are identical, including value
// kinds and float bit patterns (aggregate results are deterministic:
// groups arrive sorted and the accumulators are exact).
func rowsEqual(t *testing.T, label string, want, got []table.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d width %d, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			a, b := want[i][j], got[i][j]
			if a.Kind != b.Kind || a.Int != b.Int ||
				math.Float64bits(a.Float) != math.Float64bits(b.Float) {
				t.Fatalf("%s: row %d col %d: got %+v, want %+v", label, i, j, b, a)
			}
		}
	}
}

func TestAggregateQueryAgainstRowOracle(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()

	sql := "SELECT REL, COUNT(*), SUM(TIME), MIN(SOIL), MAX(SOIL), AVG(SOIL) FROM IparsData WHERE SGAS > 0.3 GROUP BY REL"
	p, err := prepare(svc, sql)
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"REL", "COUNT(*)", "SUM(TIME)", "MIN(SOIL)", "MAX(SOIL)", "AVG(SOIL)"}
	for i, c := range wantCols {
		if p.Cols[i] != c {
			t.Fatalf("Cols = %v, want %v", p.Cols, wantCols)
		}
	}
	if p.OutSchema.NumAttrs() != len(wantCols) {
		t.Fatalf("out schema = %d attrs", p.OutSchema.NumAttrs())
	}
	got, stats, err := collect(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.AggPushedQueries != 1 || stats.AggPartialGroups == 0 {
		t.Errorf("agg stats not reported: %+v", stats)
	}
	if stats.VectorBatches == 0 {
		t.Errorf("aggregate did not run vectorized: %+v", stats)
	}
	// Oracle: the plain row path (its own correctness is covered by the
	// projection tests), aggregated by hand in test code.
	rows, err := queryAll(svc, "SELECT REL, TIME, SOIL FROM IparsData WHERE SGAS > 0.3")
	if err != nil {
		t.Fatal(err)
	}
	// RowsEmitted counts rows folded into partials, not result groups.
	if stats.RowsEmitted != int64(len(rows)) {
		t.Errorf("RowsEmitted = %d, want %d matching rows", stats.RowsEmitted, len(rows))
	}
	type acc struct {
		n, sumT  int64
		min, max float64
		sumS     float64
	}
	byRel := map[int64]*acc{}
	for _, r := range rows {
		rel := r[0].AsInt()
		a := byRel[rel]
		if a == nil {
			a = &acc{min: math.Inf(1), max: math.Inf(-1)}
			byRel[rel] = a
		}
		a.n++
		a.sumT += r[1].AsInt()
		s := r[2].AsFloat()
		a.min = math.Min(a.min, s)
		a.max = math.Max(a.max, s)
		a.sumS += s
	}
	if len(got) != len(byRel) {
		t.Fatalf("groups = %d, want %d", len(got), len(byRel))
	}
	for _, g := range got {
		a := byRel[g[0].AsInt()]
		if a == nil {
			t.Fatalf("unexpected group %v", g[0])
		}
		if g[1].Int != a.n || g[2].Int != a.sumT {
			t.Errorf("REL %d: count/sum = %d/%d, want %d/%d", g[0].AsInt(), g[1].Int, g[2].Int, a.n, a.sumT)
		}
		if g[3].AsFloat() != a.min || g[4].AsFloat() != a.max {
			t.Errorf("REL %d: min/max = %g/%g, want %g/%g", g[0].AsInt(), g[3].AsFloat(), g[4].AsFloat(), a.min, a.max)
		}
		avg := a.sumS / float64(a.n)
		if d := math.Abs(g[5].AsFloat() - avg); d > 1e-9*math.Abs(avg) {
			t.Errorf("REL %d: avg = %g, naive oracle %g", g[0].AsInt(), g[5].AsFloat(), avg)
		}
	}
}

func TestAggregateParallelMatchesSequential(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()
	p, err := prepare(svc, "SELECT TIME, COUNT(*), AVG(SOIL), SUM(SGAS) FROM IparsData GROUP BY TIME")
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := collect(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := collect(p, Options{Parallel: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Exact accumulators make the parallel merge bit-identical.
	rowsEqual(t, "parallel", seq, par)

	// The scalar-filter diagnostic path must also agree.
	scalar, sstats, err := collect(p, Options{ScalarFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, "scalar", seq, scalar)
	if sstats.VectorBatches != 0 {
		t.Errorf("ScalarFilter run counted %d vector batches", sstats.VectorBatches)
	}
}

func TestAggregateEmptyAndSkipped(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()
	for _, sql := range []string{
		// Index prunes every chunk: TIME out of range.
		"SELECT REL, COUNT(*) FROM IparsData WHERE TIME > 100 GROUP BY REL",
		// Chunks survive planning but no row matches.
		"SELECT REL, COUNT(*) FROM IparsData WHERE SOIL > 2 GROUP BY REL",
		// Global aggregate over zero rows: zero result rows, not NULLs.
		"SELECT COUNT(*) FROM IparsData WHERE SOIL > 2",
	} {
		rows, err := queryAll(svc, sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if len(rows) != 0 {
			t.Errorf("%q: %d rows, want 0", sql, len(rows))
		}
	}
}

func TestAggregateGlobalCount(t *testing.T) {
	svc, s := iparsService(t, "CLUSTER")
	defer svc.Close()
	rows, err := queryAll(svc, "SELECT COUNT(*) FROM IparsData")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int != s.IparsTotalRows() {
		t.Fatalf("COUNT(*) = %v, want 1 row of %d", rows, s.IparsTotalRows())
	}
	// The zero-column block layout must survive the scalar path too.
	p, err := prepare(svc, "SELECT COUNT(*) FROM IparsData")
	if err != nil {
		t.Fatal(err)
	}
	scalar, _, err := collect(p, Options{ScalarFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, "scalar COUNT(*)", rows, scalar)
}

func TestAggregateUnionOverNodesMatchesWhole(t *testing.T) {
	// The cluster push-down contract at the core level: per-node partial
	// states, merged, finalize exactly like one whole-table pass.
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()
	p, err := prepare(svc, "SELECT TIME, COUNT(*), AVG(SOIL) FROM IparsData WHERE SGAS > 0.2 GROUP BY TIME")
	if err != nil {
		t.Fatal(err)
	}
	whole, _, err := collect(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged := query.NewAggState(p.Agg)
	for _, n := range svc.Nodes() {
		part, _, err := p.RunAggPartialContext(t.Context(), Options{NodeFilter: n})
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range part.EncodeChunks(64) {
			if err := merged.MergeEncoded(chunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	rowsEqual(t, "node union", whole, merged.Finalize())
}

func TestAggregatePrepareErrors(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()
	bad := []string{
		"SELECT SOIL, COUNT(*) FROM IparsData GROUP BY REL", // bare column not grouped
		"SELECT SUM(NOPE) FROM IparsData",                   // unknown attribute
		"SELECT COUNT(*) FROM IparsData GROUP BY NOPE",      // unknown group key
		"SELECT REL, REL FROM IparsData GROUP BY REL",       // duplicate item
		"SELECT COUNT(*), COUNT(*) FROM IparsData",          // duplicate aggregate
		"SELECT AVG(SOIL) FROM IparsData GROUP BY REL, REL", // duplicate key
	}
	for _, sql := range bad {
		if _, err := prepare(svc, sql); err == nil {
			t.Errorf("Prepare(%q) accepted", sql)
		}
	}
}
