package query

import (
	"math/rand"
	"testing"

	"datavirt/internal/schema"
	"datavirt/internal/sqlparser"
)

// The fold benchmarks use only the surface the repo's benchmark replays
// (NewAggState, ObserveBatch, EncodeChunks, MergeEncoded, Batch), so the
// same file measures any commit.

const foldBenchRows = 512 // the extractor's block size

// foldBenchPlan compiles "SELECT K, <aggs> FROM T GROUP BY K" over an
// integer key K, an integer input V and three float inputs A, B, C,
// bound to that column order.
func foldBenchPlan(tb testing.TB, aggs string) *AggPlan {
	tb.Helper()
	cols := []schema.Attribute{
		{Name: "K", Kind: schema.Int},
		{Name: "V", Kind: schema.Long},
		{Name: "A", Kind: schema.Float},
		{Name: "B", Kind: schema.Float},
		{Name: "C", Kind: schema.Float},
	}
	plan, err := BuildAggPlan(sqlparser.MustParse("SELECT K, "+aggs+" FROM T GROUP BY K"), schema.MustNew("T", cols))
	if err != nil {
		tb.Fatal(err)
	}
	err = plan.Bind(func(name string) (int, bool) {
		for i, c := range cols {
			if c.Name == name {
				return i, true
			}
		}
		return 0, false
	})
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// foldBenchBatch fills a batch in foldBenchPlan's layout with the keys
// key(r) and pseudo-random inputs.
func foldBenchBatch(n int, key func(r int) int64) *Batch {
	rng := rand.New(rand.NewSource(23))
	b := &Batch{}
	b.Reset(5, n)
	kinds := []schema.Kind{schema.Int, schema.Long, schema.Float, schema.Float, schema.Float}
	for c, kind := range kinds {
		b.Cols[c].Kind = kind
		if !kind.Integral() {
			for r := range b.Cols[c].F {
				b.Cols[c].F[r] = float64(float32(rng.Float64()))
			}
			continue
		}
		iv := b.IntCol(c)
		for r := range iv {
			iv[r] = rng.Int63n(1 << 20)
			if c == 0 {
				iv[r] = key(r)
			}
			b.Cols[c].F[r] = float64(iv[r])
		}
	}
	return b
}

var foldBenchPatterns = []struct {
	name string
	key  func(r int) int64
}{
	{"one-run", func(int) int64 { return 7 }},
	{"alternating-128", func(r int) int64 { return int64(1 + r%128) }},
	{"runs-of-16", func(r int) int64 { return int64(r / 16) }},
	{"high-cardinality", func(r int) int64 { return int64(r*2654435761) % 50021 }},
}

var foldBenchAggs = []struct{ name, sql string }{
	{"count", "COUNT(*)"},
	{"int-sum", "SUM(V)"},
	{"float-min-max", "MIN(A), MAX(B)"},
	{"exact-sum-avg", "SUM(A), AVG(B)"},
	{"benchmark-four", "COUNT(*), SUM(A), AVG(B), MAX(C)"},
}

func BenchmarkFold(b *testing.B) {
	for _, pat := range foldBenchPatterns {
		// High cardinality needs more rows than groups to be a steady state.
		n := foldBenchRows
		if pat.name == "high-cardinality" {
			n = 1 << 16
		}
		batch := foldBenchBatch(n, pat.key)
		all := Identity(nil, n)
		for _, agg := range foldBenchAggs {
			b.Run(pat.name+"/"+agg.name, func(b *testing.B) {
				state := NewAggState(foldBenchPlan(b, agg.sql))
				state.ObserveBatch(batch, all)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					state.ObserveBatch(batch, all)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
			})
		}
	}
}

var exactSumSink float64

func BenchmarkExactSumAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(float32(rng.Float64()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var x ExactSum
	for i := 0; i < b.N; i++ {
		x.Add(vals[i%len(vals)])
	}
	exactSumSink = x.Value()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
}

func BenchmarkAggMerge(b *testing.B) {
	const groups = 128
	plan := foldBenchPlan(b, "COUNT(*), SUM(A), AVG(B), MAX(C)")
	batch := foldBenchBatch(4096, func(r int) int64 { return int64(1 + r%groups) })
	state := NewAggState(plan)
	state.ObserveBatch(batch, Identity(nil, 4096))
	if state.Groups() != groups {
		b.Fatalf("%d groups, want %d", state.Groups(), groups)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		into := NewAggState(plan)
		for _, chunk := range state.EncodeChunks(0) {
			if err := into.MergeEncoded(chunk); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/groups, "ns/group")
}

// TestFoldSteadyStateAllocs guards the fold's allocation behaviour: once
// a state holds a batch's groups and has sized its scratch, folding
// another such batch allocates nothing, for every key pattern.
func TestFoldSteadyStateAllocs(t *testing.T) {
	plan := foldBenchPlan(t, "COUNT(*), SUM(V), MIN(V), MIN(A), SUM(A), AVG(B), MAX(C)")
	for _, pat := range foldBenchPatterns {
		batch := foldBenchBatch(foldBenchRows, pat.key)
		all := Identity(nil, foldBenchRows)
		state := NewAggState(plan)
		state.ObserveBatch(batch, all)
		if n := testing.AllocsPerRun(10, func() { state.ObserveBatch(batch, all) }); n != 0 {
			t.Errorf("%s: steady-state ObserveBatch allocates %v times per batch, want 0", pat.name, n)
		}
	}
}
