package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"datavirt/internal/afc"
	"datavirt/internal/cache"
	"datavirt/internal/filter"
	"datavirt/internal/gen"
	"datavirt/internal/obs"
	"datavirt/internal/table"
)

func iparsService(t *testing.T, layoutID string) (*Service, gen.IparsSpec) {
	t.Helper()
	s := gen.IparsSpec{
		Realizations: 2, TimeSteps: 4, GridPoints: 18, Partitions: 3,
		Attrs: 5, Seed: 21,
	}
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, layoutID)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Open(descPath, root)
	if err != nil {
		t.Fatal(err)
	}
	return svc, s
}

// prepare, collect and queryAll run the context-taking entry points
// under a background context.
func prepare(svc *Service, sql string) (*Prepared, error) {
	return svc.PrepareContext(context.Background(), sql)
}

func collect(p *Prepared, opt Options) ([]table.Row, obs.QueryStats, error) {
	return p.CollectContext(context.Background(), opt)
}

func queryAll(svc *Service, sql string) ([]table.Row, error) {
	p, err := prepare(svc, sql)
	if err != nil {
		return nil, err
	}
	rows, _, err := collect(p, Options{})
	return rows, err
}

func TestOpenAndQuery(t *testing.T) {
	svc, s := iparsService(t, "CLUSTER")
	if svc.TableName() != "IparsData" {
		t.Errorf("TableName = %q", svc.TableName())
	}
	if svc.Schema().NumAttrs() != 5+s.Attrs {
		t.Errorf("schema attrs = %d", svc.Schema().NumAttrs())
	}
	rows, err := queryAll(svc, "SELECT * FROM IparsData")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if int64(len(rows)) != s.IparsTotalRows() {
		t.Errorf("rows = %d, want %d", len(rows), s.IparsTotalRows())
	}
	// Row width = full schema.
	if len(rows[0]) != svc.Schema().NumAttrs() {
		t.Errorf("row width = %d", len(rows[0]))
	}
}

func TestQueryBySchemaName(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	// FROM accepts the schema name as well as the dataset name.
	if _, err := queryAll(svc, "SELECT TIME FROM IPARS WHERE TIME = 1"); err != nil {
		t.Errorf("FROM IPARS: %v", err)
	}
	if _, err := queryAll(svc, "SELECT TIME FROM Other"); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestPreparedProjectionAndValues(t *testing.T) {
	svc, s := iparsService(t, "CLUSTER")
	p, err := prepare(svc, "SELECT SOIL, REL, TIME FROM IparsData WHERE REL = 1 AND TIME = 2 AND SGAS > 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cols) != 3 || p.Cols[0] != "SOIL" || p.OutSchema.NumAttrs() != 3 {
		t.Fatalf("cols = %v", p.Cols)
	}
	rows, stats, err := collect(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Verify against regeneration.
	var want []float64
	for g := int64(0); g < int64(s.GridPoints); g++ {
		if float64(float32(s.Value(1, 1, 2, g))) > 0.5 { // SGAS index 1
			want = append(want, float64(float32(s.Value(0, 1, 2, g)))) // SOIL
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	var got []float64
	for _, r := range rows {
		if r[1].AsFloat() != 1 || r[2].AsFloat() != 2 {
			t.Fatalf("implicit cols wrong: %v", r)
		}
		got = append(got, r[0].AsFloat())
	}
	sort.Float64s(got)
	sort.Float64s(want)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-7 {
			t.Fatalf("value %d: %g vs %g", i, got[i], want[i])
		}
	}
	if stats.RowsScanned != int64(s.GridPoints) {
		t.Errorf("scanned = %d, want %d (index should prune to one (REL,TIME))",
			stats.RowsScanned, s.GridPoints)
	}
}

// TestWorkersOption: Workers bounds only the aggregate fold pool, so a
// row query returns the same rows in the same (plan) order whatever its
// value, and a negative value is rejected.
func TestWorkersOption(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	p, err := prepare(svc, "SELECT * FROM IparsData WHERE SOIL > 0.5")
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := collect(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("query selected nothing; test is vacuous")
	}
	for _, workers := range []int{1, 4} {
		got, _, err := collect(p, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, fmt.Sprintf("workers=%d", workers), want, got)
	}
	if _, _, err := collect(p, Options{Workers: -1}); err == nil || !strings.Contains(err.Error(), "Options.Workers") {
		t.Errorf("Workers = -1: err = %v", err)
	}
}

func TestNodeFilterPartitionsWork(t *testing.T) {
	svc, s := iparsService(t, "CLUSTER")
	p, err := prepare(svc, "SELECT * FROM IparsData")
	if err != nil {
		t.Fatal(err)
	}
	nodes := svc.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("nodes = %v", nodes)
	}
	var total int64
	for _, n := range nodes {
		rows, _, err := collect(p, Options{NodeFilter: n})
		if err != nil {
			t.Fatal(err)
		}
		total += int64(len(rows))
	}
	if total != s.IparsTotalRows() {
		t.Errorf("union over nodes = %d, want %d", total, s.IparsTotalRows())
	}
	// Every AFC is co-located, so the node filters cover each exactly once.
	if err := CheckColocated(p.AFCs); err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, n := range nodes {
		count += len(FilterByNode(p.AFCs, n))
	}
	if count != len(p.AFCs) {
		t.Errorf("split count = %d, want %d", count, len(p.AFCs))
	}
}

func TestSplitByNodeRejectsCrossNodeChunks(t *testing.T) {
	local := afc.AFC{
		NumRows: 2,
		Node:    "node0",
		Segments: []afc.Segment{
			{Node: "node0", File: "a", RowStride: 4, RowBytes: 4},
			{Node: "node0", File: "b", RowStride: 4, RowBytes: 4},
		},
	}
	cross := afc.AFC{
		NumRows: 1,
		Node:    "node0",
		Segments: []afc.Segment{
			{Node: "node0", File: "a", RowStride: 4, RowBytes: 4},
			{Node: "node1", File: "b", RowStride: 4, RowBytes: 4},
		},
	}
	err := CheckColocated([]afc.AFC{local, cross})
	if err == nil {
		t.Fatal("cross-node chunk accepted")
	}
	if !strings.Contains(err.Error(), cross.String()) {
		t.Errorf("error %q does not name the offending chunk %s", err, cross.String())
	}
	// Segmentless chunks belong to their home node.
	ok := []afc.AFC{local, {NumRows: 2, Node: "node1"}}
	if err := CheckColocated(ok); err != nil {
		t.Errorf("co-located chunks rejected: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = CheckColocated(ok) }); n != 0 {
		t.Errorf("CheckColocated allocated %v times on co-located chunks, want 0", n)
	}
}

func TestCustomFilterRegistration(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	err := svc.Filters().Register(filter.Func{
		Name: "DOUBLE", MinArgs: 1, MaxArgs: 1,
		Fn: func(a []float64) float64 { return 2 * a[0] },
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := queryAll(svc, "SELECT TIME FROM IparsData WHERE DOUBLE(TIME) = 4 AND REL = 0")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r[0].AsFloat() != 2 {
			t.Fatalf("DOUBLE filter selected TIME=%v", r[0])
		}
	}
	if len(rows) == 0 {
		t.Error("filter selected nothing")
	}
}

func TestPrepareErrors(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	bad := []string{
		"not sql at all",
		"SELECT NOPE FROM IparsData",
		"SELECT * FROM IparsData WHERE BOGUS(SOIL) > 1",
		"SELECT * FROM WrongTable",
	}
	for _, sql := range bad {
		if _, err := prepare(svc, sql); err == nil {
			t.Errorf("Prepare(%q) accepted", sql)
		}
	}
}

func TestEmptyResultQueries(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	for _, sql := range []string{
		"SELECT * FROM IparsData WHERE TIME > 100",
		"SELECT * FROM IparsData WHERE REL = 9",
		"SELECT * FROM IparsData WHERE SOIL > 2",
	} {
		rows, err := queryAll(svc, sql)
		if err != nil {
			t.Errorf("%q: %v", sql, err)
		}
		if len(rows) != 0 {
			t.Errorf("%q: %d rows", sql, len(rows))
		}
	}
}

func TestRunReusesBuffer(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	p, err := prepare(svc, "SELECT TIME FROM IparsData WHERE REL = 0")
	if err != nil {
		t.Fatal(err)
	}
	var first table.Row
	n := 0
	_, err = p.RunContext(context.Background(), Options{}, func(r table.Row) error {
		if n == 0 {
			first = r // deliberately retain without copying
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatal("need at least 2 rows")
	}
	// The retained slice aliases the reused buffer; Collect copies.
	rows, _, err := collect(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = first
	if len(rows) != n {
		t.Errorf("Collect rows = %d, Run emitted %d", len(rows), n)
	}
}

func TestTitanService(t *testing.T) {
	root := t.TempDir()
	ts := gen.TitanSpec{
		Points: 3000, XMax: 500, YMax: 500, ZMax: 50,
		TilesX: 3, TilesY: 3, TilesZ: 2, Nodes: 1, Seed: 13,
	}
	descPath, err := gen.WriteTitan(root, ts)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Open(descPath, root)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := queryAll(svc, "SELECT * FROM TitanData WHERE X <= 100 AND Y <= 100")
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for j := int64(0); j < int64(ts.Points); j++ {
		x, y, _, _ := ts.Point(j)
		if x <= 100 && y <= 100 {
			want++
		}
	}
	if len(rows) != want {
		t.Errorf("rows = %d, want %d", len(rows), want)
	}
	// Index cache: a second query reuses the loaded index.
	if _, err := queryAll(svc, "SELECT * FROM TitanData WHERE Z <= 10"); err != nil {
		t.Fatal(err)
	}
}

func TestServiceCacheWarmsAcrossQueries(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()
	sql := "SELECT * FROM IparsData WHERE TIME >= 1 AND TIME <= 2"

	run := func(opt Options) ([]table.Row, obs.QueryStats) {
		t.Helper()
		p, err := prepare(svc, sql)
		if err != nil {
			t.Fatal(err)
		}
		rows, stats, err := collect(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		return rows, stats
	}

	cold, coldStats := run(Options{})
	if coldStats.CacheMisses == 0 || coldStats.FSBytesRead == 0 {
		t.Fatalf("cold query saw no cache traffic: %+v", coldStats)
	}
	warm, warmStats := run(Options{})
	if len(warm) != len(cold) {
		t.Fatalf("warm rows = %d, cold = %d", len(warm), len(cold))
	}
	if warmStats.FSBytesRead != 0 {
		t.Errorf("warm query read %d fs bytes, want 0", warmStats.FSBytesRead)
	}
	if warmStats.CacheHits == 0 || warmStats.CacheMisses != 0 {
		t.Errorf("warm query not served from cache: %+v", warmStats)
	}
	// BytesRead (analytic payload) is identical either way.
	if warmStats.BytesRead != coldStats.BytesRead {
		t.Errorf("analytic BytesRead changed: cold %d warm %d", coldStats.BytesRead, warmStats.BytesRead)
	}
	// The shared cache's global stats agree.
	cs := svc.CacheStats()
	if cs.Hits == 0 || cs.Misses == 0 || cs.Bytes == 0 {
		t.Errorf("service cache stats empty: %+v", cs)
	}

	// NoCache bypasses the shared cache: fs bytes come back.
	_, bypassStats := run(Options{NoCache: true})
	if bypassStats.CacheHits != 0 || bypassStats.CacheMisses != 0 {
		t.Errorf("NoCache query touched the block cache: %+v", bypassStats)
	}
	if bypassStats.FSBytesRead == 0 {
		t.Errorf("NoCache query reported no fs bytes")
	}

	// The cursor reports the same record CollectContext returns.
	_, stats := run(Options{})
	rows, err := svc.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	qs := rows.Stats()
	if qs.CacheHits != stats.CacheHits || qs.FSBytesRead != stats.FSBytesRead ||
		qs.CacheMisses != stats.CacheMisses || qs.CacheBytesServed != stats.CacheBytesServed {
		t.Errorf("cursor record differs in cache counters: %+v vs %+v", qs, stats)
	}
	if !strings.Contains(qs.String(), "cache: ") {
		t.Errorf("QueryStats.String missing cache line:\n%s", qs.String())
	}
}

func TestSetCacheConfigReplacesCache(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()
	if _, err := queryAll(svc, "SELECT * FROM IparsData WHERE TIME = 1"); err != nil {
		t.Fatal(err)
	}
	if svc.CacheStats().Misses == 0 {
		t.Fatal("expected cache traffic before reconfigure")
	}
	svc.SetCacheConfig(cache.Config{MaxBytes: 1 << 20, BlockBytes: 4096})
	cs := svc.CacheStats()
	if cs.Misses != 0 || cs.Blocks != 0 {
		t.Errorf("SetCacheConfig kept old stats: %+v", cs)
	}
	if _, err := queryAll(svc, "SELECT * FROM IparsData WHERE TIME = 1"); err != nil {
		t.Fatal(err)
	}
	if svc.CacheStats().Misses == 0 {
		t.Error("replacement cache unused")
	}
	// Disabled config: queries still work, no blocks cached.
	svc.SetCacheConfig(cache.Config{Disabled: true})
	if _, err := queryAll(svc, "SELECT * FROM IparsData WHERE TIME = 1"); err != nil {
		t.Fatal(err)
	}
	if cs := svc.CacheStats(); cs.Blocks != 0 {
		t.Errorf("disabled cache holds %d blocks", cs.Blocks)
	}
}
