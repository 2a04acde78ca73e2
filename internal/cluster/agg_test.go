package cluster

import (
	"context"
	"math"
	"slices"
	"testing"

	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/query"
	"datavirt/internal/sqlparser"
	"datavirt/internal/storm"
	"datavirt/internal/table"
)

// localService opens a single-process service over the same generated
// dataset a cluster was started on, for local-vs-distributed oracles.
func localService(t *testing.T, s gen.IparsSpec) *core.Service {
	t.Helper()
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, "CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.Open(descPath, root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// TestDistributedAggregateMatchesLocal is the push-down correctness
// contract: per-leg partials shipped as 'A' frames and merged at the
// coordinator must produce rows bit-identical to local execution —
// same group order, same float bit patterns, including empty results.
func TestDistributedAggregateMatchesLocal(t *testing.T) {
	s := defaultSpec()
	local := localService(t, s)
	coord, _ := startCluster(t, s)

	for _, sql := range []string{
		"SELECT REL, COUNT(*), SUM(TIME), AVG(SOIL) FROM IparsData GROUP BY REL",
		"SELECT TIME, MIN(SOIL), MAX(SGAS), AVG(SGAS) FROM IparsData WHERE SGAS > 0.3 GROUP BY TIME",
		"SELECT COUNT(*), SUM(SOIL) FROM IparsData",
		"SELECT REL, TIME, COUNT(*) FROM IparsData WHERE SOIL > 0.5 GROUP BY REL, TIME",
		"SELECT REL, COUNT(*) FROM IparsData WHERE TIME > 100 GROUP BY REL", // all chunks pruned
		"SELECT COUNT(*) FROM IparsData WHERE SOIL > 2",                     // zero matches, global
	} {
		p, err := local.PrepareContext(context.Background(), sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		want, _, err := p.CollectContext(context.Background(), core.Options{})
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		got, res, err := coord.CollectQueryContext(context.Background(), sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		sameAggRows(t, sql, got, want)
		// Aggregate legs transfer partials, not tuples.
		if res.Rows != 0 {
			t.Errorf("%q: trailer counted %d tuple rows for an aggregate", sql, res.Rows)
		}
		if len(want) > 0 && res.SentBytes == 0 {
			t.Errorf("%q: no payload bytes accounted", sql)
		}
		if res.QueryStats.AggPushedQueries == 0 {
			t.Errorf("%q: AggPushedQueries not merged into QueryStats", sql)
		}
	}
}

// sameAggRows fails unless got and want agree bit for bit: same group
// order, same kinds, same integer and float bit patterns.
func sameAggRows(t *testing.T, label string, got, want []table.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			a, b := want[i][j], got[i][j]
			if a.Kind != b.Kind || a.Int != b.Int ||
				math.Float64bits(a.Float) != math.Float64bits(b.Float) {
				t.Fatalf("%s: row %d col %d: got %+v, want %+v", label, i, j, b, a)
			}
		}
	}
}

// TestDistributedAggregateMatchesRowsThenAggregate compares push-down
// with what a client without it does: fetch the aggregate's input
// columns as rows through the coordinator and fold them one row at a
// time. The two must agree bit for bit.
func TestDistributedAggregateMatchesRowsThenAggregate(t *testing.T) {
	coord, _ := startCluster(t, defaultSpec())
	const aggSQL = "SELECT TIME, COUNT(*), SUM(SOIL), AVG(SGAS) FROM IparsData WHERE SOIL > 0.2 GROUP BY TIME"
	cols := []string{"TIME", "SOIL", "SGAS"}
	pushed, _, err := coord.CollectQueryContext(context.Background(), aggSQL)
	if err != nil {
		t.Fatal(err)
	}
	inputs, _, err := coord.CollectQueryContext(context.Background(), "SELECT TIME, SOIL, SGAS FROM IparsData WHERE SOIL > 0.2")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := query.BuildAggPlan(sqlparser.MustParse(aggSQL), coord.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Bind(func(name string) (int, bool) {
		i := slices.Index(cols, name)
		return i, i >= 0
	}); err != nil {
		t.Fatal(err)
	}
	state := query.NewAggState(plan)
	for _, r := range inputs {
		state.ObserveRow(r)
	}
	sameAggRows(t, aggSQL, pushed, state.Finalize())
}

// TestDistributedAggregateBytesScaleWithGroups demonstrates the point
// of the push-down: coordinator-side result traffic scales with the
// group count, not the matching-row count.
func TestDistributedAggregateBytesScaleWithGroups(t *testing.T) {
	coord, s := startCluster(t, defaultSpec())
	_, rowsRes, err := coord.CollectQueryContext(context.Background(), "SELECT REL, TIME, SOIL FROM IparsData")
	if err != nil {
		t.Fatal(err)
	}
	_, aggRes, err := coord.CollectQueryContext(context.Background(), "SELECT REL, COUNT(*), AVG(SOIL) FROM IparsData GROUP BY REL")
	if err != nil {
		t.Fatal(err)
	}
	if rowsRes.Rows != s.IparsTotalRows() || rowsRes.SentBytes == 0 {
		t.Fatalf("row query trailer: %+v", rowsRes)
	}
	if aggRes.SentBytes == 0 || aggRes.SentBytes*4 > rowsRes.SentBytes {
		t.Errorf("aggregate sent %d bytes vs %d for rows — push-down is not paying off",
			aggRes.SentBytes, rowsRes.SentBytes)
	}
}

func TestAggregateQueryCannotBePartitioned(t *testing.T) {
	coord, _ := startCluster(t, defaultSpec())
	sinks := []storm.Sink{&storm.SliceSink{}, &storm.SliceSink{}}
	spec := storm.PartitionSpec{Scheme: storm.HashAttr, NumDests: 2, Attr: "REL"}
	_, err := coord.QueryPartitionedContext(context.Background(),
		"SELECT REL, COUNT(*) FROM IparsData GROUP BY REL", spec, sinks)
	if err == nil {
		t.Fatal("partitioned aggregate accepted")
	}
}

// TestDistributedAggregateStreaming drives the streaming cursor over an
// aggregate result: finalized rows arrive in sorted group order.
func TestDistributedAggregateStreaming(t *testing.T) {
	coord, _ := startCluster(t, defaultSpec())
	var got []table.Row
	res, err := coord.QueryFuncContext(context.Background(),
		"SELECT TIME, COUNT(*) FROM IparsData GROUP BY TIME",
		func(row table.Row) error {
			r := make(table.Row, len(row))
			copy(r, row)
			got = append(got, r)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(got) == 0 {
		t.Fatal("no rows streamed")
	}
	for i := 1; i < len(got); i++ {
		if got[i-1][0].AsFloat() >= got[i][0].AsFloat() {
			t.Fatalf("groups not sorted: %v then %v", got[i-1][0], got[i][0])
		}
	}
}
