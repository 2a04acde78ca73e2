package extractor

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"datavirt/internal/afc"
	"datavirt/internal/cache"
	"datavirt/internal/cache/cachetest"
	"datavirt/internal/filter"
	"datavirt/internal/gen"
	"datavirt/internal/index"
	"datavirt/internal/metadata"
	"datavirt/internal/obs"
	"datavirt/internal/query"
	"datavirt/internal/schema"
	"datavirt/internal/sqlparser"
	"datavirt/internal/table"
)

// nodeResolver resolves node/file pairs under a generated root.
func nodeResolver(root string) Resolver {
	return func(node, file string) (string, error) {
		return filepath.Join(gen.NodePath(root, node), filepath.FromSlash(file)), nil
	}
}

func spec() gen.IparsSpec {
	return gen.IparsSpec{
		Realizations: 2, TimeSteps: 6, GridPoints: 20, Partitions: 2,
		Attrs: 5, Seed: 11,
	}
}

// setupIpars generates the dataset in the given layout and returns the
// compiled plan plus the data root.
func setupIpars(t *testing.T, s gen.IparsSpec, layoutID string) (*afc.Plan, string) {
	t.Helper()
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, layoutID)
	if err != nil {
		t.Fatalf("WriteIpars(%s): %v", layoutID, err)
	}
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := afc.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	return p, root
}

// naiveRows enumerates the expected virtual table directly from the
// spec: the reference implementation every layout must reproduce.
func naiveRows(s gen.IparsSpec, sch *schema.Schema, cols []string, keep func(vals map[string]float64) bool) [][]float64 {
	names := gen.IparsAttrNames(s.Attrs)
	var out [][]float64
	for rel := int64(0); rel < int64(s.Realizations); rel++ {
		for tm := int64(1); tm <= int64(s.TimeSteps); tm++ {
			for g := int64(0); g < int64(s.GridPoints); g++ {
				vals := map[string]float64{"REL": float64(rel), "TIME": float64(tm)}
				x, y, z := s.Coord(g)
				vals["X"], vals["Y"], vals["Z"] = x, y, z
				for ai, n := range names {
					vals[n] = float64(float32(s.Value(ai, rel, tm, g)))
				}
				if keep != nil && !keep(vals) {
					continue
				}
				row := make([]float64, len(cols))
				for i, c := range cols {
					row[i] = vals[c]
				}
				out = append(out, row)
			}
		}
	}
	return out
}

// runRows is RunBatchesContext under a background context, with the
// batches unrolled into per-row emit calls.
func runRows(afcs []afc.AFC, resolver Resolver, opt Options, emit EmitFunc) (obs.QueryStats, error) {
	return RunBatchesContext(context.Background(), afcs, resolver, opt, PerRow(emit))
}

// runQuery executes SQL against a plan and returns rows as float slices.
func runQuery(t *testing.T, p *afc.Plan, root, sql string) ([][]float64, obs.QueryStats) {
	t.Helper()
	return runQueryVia(t, p, root, sql, runRows)
}

// runQueryVia plans sql as runQuery does and extracts through run.
func runQueryVia(t *testing.T, p *afc.Plan, root, sql string,
	run func(afcs []afc.AFC, resolver Resolver, opt Options, emit EmitFunc) (obs.QueryStats, error)) ([][]float64, obs.QueryStats) {
	t.Helper()
	q := sqlparser.MustParse(sql)
	reg := filter.NewRegistry()
	cols, err := query.Validate(q, p.Schema, reg)
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	// Working columns: select + where attrs, in schema order.
	needed := map[string]bool{}
	for _, c := range cols {
		needed[c] = true
	}
	for _, c := range sqlparser.ExprColumns(q.Where) {
		needed[c] = true
	}
	var work []schema.Attribute
	for _, a := range p.Schema.Attrs() {
		if needed[a.Name] {
			work = append(work, a)
		}
	}
	workIdx := map[string]int{}
	for i, a := range work {
		workIdx[a.Name] = i
	}
	neededNames := make([]string, len(work))
	for i, a := range work {
		neededNames[i] = a.Name
	}
	ranges := query.ExtractRanges(q.Where)
	loader := func(fi metadata.FileInstance) (*index.ChunkIndex, error) {
		return index.ReadFile(filepath.Join(gen.NodePath(root, fi.Node()), filepath.FromSlash(fi.Path())))
	}
	afcs, err := p.Generate(ranges, neededNames, loader)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	pred, err := query.CompilePredicate(q.Where, func(name string) (int, bool) {
		i, ok := workIdx[name]
		return i, ok
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]float64
	emit := func(r table.Row) error {
		out := make([]float64, len(cols))
		for i, c := range cols {
			out[i] = r[workIdx[c]].AsFloat()
		}
		rows = append(rows, out)
		return nil
	}
	stats, err := run(afcs, nodeResolver(root), Options{Cols: work, Pred: pred}, emit)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	return rows, stats
}

// sortRows canonicalizes row order for comparison.
func sortRows(rows [][]float64) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

func assertSameRows(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d", label, len(got), len(want))
	}
	sortRows(got)
	sortRows(want)
	for i := range want {
		for k := range want[i] {
			g, w := got[i][k], want[i][k]
			if g != w && math.Abs(g-w) > 1e-6*math.Max(math.Abs(g), math.Abs(w)) {
				t.Fatalf("%s: row %d col %d: got %g, want %g\ngot  %v\nwant %v",
					label, i, k, g, w, got[i], want[i])
			}
		}
	}
}

// TestAllLayoutsEquivalent is the cross-layout correctness test of the
// paper's second experiment: the same queries over the same data in
// every layout must produce identical virtual tables, and they must
// match the naive reference enumeration.
func TestAllLayoutsEquivalent(t *testing.T) {
	s := spec()
	queries := []struct {
		sql  string
		keep func(map[string]float64) bool
		cols []string
	}{
		{
			sql:  "SELECT * FROM IparsData",
			keep: nil,
			cols: append([]string{"REL", "TIME", "X", "Y", "Z"}, gen.IparsAttrNames(s.Attrs)...),
		},
		{
			sql:  "SELECT * FROM IparsData WHERE TIME > 2 AND TIME < 5",
			keep: func(v map[string]float64) bool { return v["TIME"] > 2 && v["TIME"] < 5 },
			cols: append([]string{"REL", "TIME", "X", "Y", "Z"}, gen.IparsAttrNames(s.Attrs)...),
		},
		{
			sql: "SELECT * FROM IparsData WHERE TIME > 2 AND TIME < 5 AND SOIL > 0.5",
			keep: func(v map[string]float64) bool {
				return v["TIME"] > 2 && v["TIME"] < 5 && v["SOIL"] > 0.5
			},
			cols: append([]string{"REL", "TIME", "X", "Y", "Z"}, gen.IparsAttrNames(s.Attrs)...),
		},
		{
			sql: "SELECT SOIL, TIME FROM IparsData WHERE REL = 1 AND SGAS <= 0.25",
			keep: func(v map[string]float64) bool {
				return v["REL"] == 1 && v["SGAS"] <= 0.25
			},
			cols: []string{"SOIL", "TIME"},
		},
	}
	for _, layoutID := range gen.IparsLayouts() {
		p, root := setupIpars(t, s, layoutID)
		for qi, qc := range queries {
			want := naiveRows(s, p.Schema, qc.cols, qc.keep)
			got, _ := runQuery(t, p, root, qc.sql)
			assertSameRows(t, fmt.Sprintf("%s/q%d", layoutID, qi), got, want)
		}
	}
}

// TestRowsBorrowedInPlanOrder holds the row path's delivery contract:
// every batch is borrowed and at most MaxBatchRows long, and rows arrive
// in plan order — the whole run equals its AFCs run one at a time and
// concatenated, row for row, even with Workers set. Batches are retained
// through table.CopyRows and read only once the run is over, so a
// producer that reused memory it had handed over would show up here.
func TestRowsBorrowedInPlanOrder(t *testing.T) {
	s := spec()
	p, root := setupIpars(t, s, "CLUSTER")
	sql := "SELECT * FROM IparsData WHERE TIME >= 2 AND SOIL > 0.3"
	want, wantStats := runQueryVia(t, p, root, sql, func(afcs []afc.AFC, resolver Resolver, opt Options, emit EmitFunc) (obs.QueryStats, error) {
		if len(afcs) < 4 {
			t.Fatalf("need several AFCs, got %d", len(afcs))
		}
		var total obs.QueryStats
		for i := range afcs {
			stats, err := runRows(afcs[i:i+1], resolver, opt, emit)
			if err != nil {
				return total, err
			}
			total.Add(stats)
		}
		return total, nil
	})
	got, gotStats := runQueryVia(t, p, root, sql, func(afcs []afc.AFC, resolver Resolver, opt Options, emit EmitFunc) (obs.QueryStats, error) {
		opt.Workers = 4
		var kept []table.Row
		stats, err := RunBatchesContext(context.Background(), afcs, resolver, opt,
			func(rows []table.Row) error {
				if len(rows) == 0 || len(rows) > MaxBatchRows {
					t.Errorf("batch of %d rows", len(rows))
				}
				kept = table.CopyRows(kept, rows)
				return nil
			})
		if err != nil {
			return stats, err
		}
		return stats, PerRow(emit)(kept)
	})
	if len(want) == 0 {
		t.Fatal("query selected nothing; test is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("row %d differs: got %v, want %v (rows out of plan order)", i, got[i], want[i])
			}
		}
	}
	if gotStats.RowsEmitted != wantStats.RowsEmitted || gotStats.RowsScanned != wantStats.RowsScanned {
		t.Errorf("stats mismatch: %+v vs %+v", gotStats, wantStats)
	}
}

func TestFilterFunctionQuery(t *testing.T) {
	s := spec()
	s.Attrs = 11 // include OILVX..OILVZ
	p, root := setupIpars(t, s, "CLUSTER")
	sql := "SELECT * FROM IparsData WHERE TIME <= 3 AND SPEED(OILVX, OILVY, OILVZ) < 20"
	cols := append([]string{"REL", "TIME", "X", "Y", "Z"}, gen.IparsAttrNames(s.Attrs)...)
	want := naiveRows(s, p.Schema, cols, func(v map[string]float64) bool {
		sp := math.Sqrt(v["OILVX"]*v["OILVX"] + v["OILVY"]*v["OILVY"] + v["OILVZ"]*v["OILVZ"])
		return v["TIME"] <= 3 && sp < 20
	})
	got, _ := runQuery(t, p, root, sql)
	assertSameRows(t, "speed-filter", got, want)
	if len(got) == 0 {
		t.Fatal("filter selected nothing; test is vacuous")
	}
}

func TestTitanChunkedExtraction(t *testing.T) {
	root := t.TempDir()
	ts := gen.TitanSpec{
		Points: 4000, XMax: 1000, YMax: 1000, ZMax: 100,
		TilesX: 4, TilesY: 4, TilesZ: 2, Nodes: 1, Seed: 5,
	}
	descPath, err := gen.WriteTitan(root, ts)
	if err != nil {
		t.Fatal(err)
	}
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := afc.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT * FROM TitanData WHERE X <= 300 AND Y <= 300 AND Z <= 40 AND S1 < 0.5"
	got, stats := runQuery(t, p, root, sql)

	var want [][]float64
	for j := int64(0); j < int64(ts.Points); j++ {
		x, y, z, sens := ts.Point(j)
		if x <= 300 && y <= 300 && z <= 40 && sens[0] < 0.5 {
			want = append(want, []float64{float64(x), float64(y), float64(z),
				float64(sens[0]), float64(sens[1]), float64(sens[2]), float64(sens[3]), float64(sens[4])})
		}
	}
	assertSameRows(t, "titan", got, want)
	if len(want) == 0 {
		t.Fatal("query selected nothing; test is vacuous")
	}
	// The chunk index must have pruned most of the file.
	if stats.RowsScanned >= int64(ts.Points) {
		t.Errorf("index pruned nothing: scanned %d of %d", stats.RowsScanned, ts.Points)
	}
}

func TestStatsBytesRead(t *testing.T) {
	s := spec()
	p, root := setupIpars(t, s, "CLUSTER")
	// Full scan reads every payload byte of every AFC exactly once per
	// group: COORDS bytes are re-read per TIME chunk (paper behaviour),
	// so BytesRead >= total data bytes.
	_, stats := runQuery(t, p, root, "SELECT * FROM IparsData")
	if stats.BytesRead < p.TotalDataBytes() {
		t.Errorf("BytesRead = %d < data %d", stats.BytesRead, p.TotalDataBytes())
	}
	if stats.RowsScanned != s.IparsTotalRows() {
		t.Errorf("RowsScanned = %d, want %d", stats.RowsScanned, s.IparsTotalRows())
	}
}

func TestTruncatedFileError(t *testing.T) {
	s := spec()
	p, root := setupIpars(t, s, "CLUSTER")
	// Truncate one data file.
	victim := filepath.Join(root, "node0", "ipars", "DATA0")
	fi, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	q := sqlparser.MustParse("SELECT * FROM IparsData")
	needed := p.Schema.Names()
	afcs, err := p.Generate(query.ExtractRanges(q.Where), needed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var work []schema.Attribute
	work = append(work, p.Schema.Attrs()...)
	_, err = runRows(afcs, nodeResolver(root), Options{Cols: work}, func(table.Row) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "shorter than layout requires") {
		t.Errorf("truncated file: err = %v", err)
	}
	// The aggregate pool surfaces the same failure.
	plan, opt, _ := prepareAgg(t, p.Schema, "SELECT REL, COUNT(*), SUM(SOIL) FROM IparsData GROUP BY REL")
	opt.Workers = 4
	_, _, err = RunAggregateContext(context.Background(), afcs, nodeResolver(root), opt, plan)
	if err == nil || !strings.Contains(err.Error(), "shorter than layout requires") {
		t.Errorf("truncated file, aggregate pool: err = %v", err)
	}
}

func TestMissingFileError(t *testing.T) {
	s := spec()
	p, root := setupIpars(t, s, "CLUSTER")
	if err := os.Remove(filepath.Join(root, "node1", "ipars", "COORDS")); err != nil {
		t.Fatal(err)
	}
	afcs, err := p.Generate(query.Ranges{}, p.Schema.Names(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runRows(afcs, nodeResolver(root), Options{Cols: p.Schema.Attrs()},
		func(table.Row) error { return nil })
	if err == nil {
		t.Error("missing file not reported")
	}
}

func TestEmitError(t *testing.T) {
	s := spec()
	p, root := setupIpars(t, s, "CLUSTER")
	afcs, err := p.Generate(query.Ranges{}, p.Schema.Names(), nil)
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("sink full")
	n := 0
	_, err = runRows(afcs, nodeResolver(root), Options{Cols: p.Schema.Attrs()},
		func(table.Row) error {
			n++
			if n > 10 {
				return boom
			}
			return nil
		})
	if err != boom {
		t.Errorf("emit error not propagated: %v", err)
	}
	if n != 11 {
		t.Errorf("emit called %d times, want the run to stop at the failing row (11)", n)
	}
}

func TestBindErrors(t *testing.T) {
	a := afc.AFC{NumRows: 1, Segments: []afc.Segment{
		{File: "f", RowStride: 4, RowBytes: 4,
			Attrs: []afc.SegAttr{{Name: "A", Kind: schema.Float}}},
	}}
	_, err := runRows([]afc.AFC{a}, DirResolver("/nonexistent"),
		Options{Cols: []schema.Attribute{{Name: "B", Kind: schema.Float}}},
		func(table.Row) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "no source for attribute") {
		t.Errorf("bind error = %v", err)
	}
}

func TestSmallBlockSizes(t *testing.T) {
	// Tiny BlockBytes forces multi-block iteration including constant
	// (stride 0) segment reuse.
	s := spec()
	p, root := setupIpars(t, s, "V")
	q := sqlparser.MustParse("SELECT * FROM IparsData WHERE TIME = 1")
	needed := p.Schema.Names()
	afcs, err := p.Generate(query.ExtractRanges(q.Where), needed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rowsBig, rowsSmall int64
	if _, err := runRows(afcs, nodeResolver(root), Options{Cols: p.Schema.Attrs()},
		func(table.Row) error { rowsBig++; return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := runRows(afcs, nodeResolver(root), Options{Cols: p.Schema.Attrs(), BlockBytes: 16},
		func(table.Row) error { rowsSmall++; return nil }); err != nil {
		t.Fatal(err)
	}
	if rowsBig != rowsSmall || rowsBig == 0 {
		t.Errorf("block size changed results: %d vs %d", rowsBig, rowsSmall)
	}
}

// TestDirResolverRejectsEscapes is the regression test for the path
// traversal fix: a descriptor file name containing ".." (or an
// absolute path) must not resolve outside the data directory.
func TestDirResolverRejectsEscapes(t *testing.T) {
	r := DirResolver("/data/root")
	for _, bad := range []string{
		"../secret",
		"../../etc/passwd",
		"dir/../../escape",
		"/etc/passwd",
		"",
	} {
		if got, err := r("node0", bad); err == nil {
			t.Errorf("DirResolver accepted %q -> %q", bad, got)
		}
	}
	for file, want := range map[string]string{
		"plain":        filepath.Join("/data/root", "plain"),
		"dir/file":     filepath.Join("/data/root", "dir", "file"),
		"dir/../file":  filepath.Join("/data/root", "file"), // stays inside
		"./dir/./file": filepath.Join("/data/root", "dir", "file"),
	} {
		got, err := r("node0", file)
		if err != nil {
			t.Errorf("DirResolver rejected %q: %v", file, err)
		} else if got != want {
			t.Errorf("DirResolver(%q) = %q, want %q", file, got, want)
		}
	}
}

// TestHandleReuseAcrossAFCs: with the block cache disabled, a run over
// many AFCs of the same files must open each file once, not once per
// chunk (the pre-cache implementation's churn).
func TestHandleReuseAcrossAFCs(t *testing.T) {
	s := spec()
	p, root := setupIpars(t, s, "CLUSTER")
	afcs, err := p.Generate(query.Ranges{}, p.Schema.Names(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(afcs) < 4 {
		t.Fatalf("need several AFCs, got %d", len(afcs))
	}
	distinct := map[string]bool{}
	for _, a := range afcs {
		for _, seg := range a.Segments {
			distinct[seg.Node+"/"+seg.File] = true
		}
	}
	// The shared cachetest.Disk opener counts physical opens; the block
	// cache is disabled so every open is the extractor's own demand.
	disk := &cachetest.Disk{}
	src := cache.New(cache.Config{Disabled: true, OpenFile: disk.Open})
	defer src.Close()
	var rows int64
	_, err = runRows(afcs, nodeResolver(root), Options{Cols: p.Schema.Attrs(), Source: src},
		func(table.Row) error { rows++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("no rows; test is vacuous")
	}
	if got := disk.Opens.Load(); got != int64(len(distinct)) {
		t.Errorf("opened files %d times for %d distinct files across %d AFCs",
			got, len(distinct), len(afcs))
	}
}

// TestCachedRunMatchesUncached runs the same query through the block
// cache (cold, then warm) and without it; rows must be identical and
// the warm pass must read nothing from the filesystem.
func TestCachedRunMatchesUncached(t *testing.T) {
	s := spec()
	p, root := setupIpars(t, s, "CLUSTER")
	sql := "SELECT * FROM IparsData WHERE TIME >= 2 AND TIME <= 5"
	plain, _ := runQuery(t, p, root, sql)

	q := sqlparser.MustParse(sql)
	needed := p.Schema.Names()
	afcs, err := p.Generate(query.ExtractRanges(q.Where), needed, nil)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := query.CompilePredicate(q.Where, func(name string) (int, bool) {
		i := p.Schema.Index(name)
		return i, i >= 0
	}, filter.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(cache.Config{BlockBytes: 4096})
	defer c.Close()
	opt := Options{Cols: p.Schema.Attrs(), Pred: pred, Source: c}
	collect := func() ([][]float64, obs.QueryStats) {
		var rows [][]float64
		stats, err := runRows(afcs, nodeResolver(root), opt, func(r table.Row) error {
			out := make([]float64, len(r))
			for i := range r {
				out[i] = r[i].AsFloat()
			}
			rows = append(rows, out)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows, stats
	}
	cold, coldStats := collect()
	warm, warmStats := collect()
	assertSameRows(t, "cold-vs-plain", cold, plain)
	assertSameRows(t, "warm-vs-plain", warm, plain)
	if coldStats.CacheMisses == 0 || coldStats.FSBytesRead == 0 {
		t.Errorf("cold pass did not read: %+v", coldStats)
	}
	if warmStats.FSBytesRead != 0 {
		t.Errorf("warm pass read %d bytes from the filesystem, want 0", warmStats.FSBytesRead)
	}
	if warmStats.CacheMisses != 0 || warmStats.CacheHits == 0 {
		t.Errorf("warm pass not served from cache: %+v", warmStats)
	}
	// The aggregate pool's workers share the same cache and agree too.
	plan, aopt, _ := prepareAgg(t, p.Schema, "SELECT COUNT(*) FROM IparsData WHERE TIME >= 2 AND TIME <= 5")
	aopt.Workers, aopt.Source = 4, c
	state, astats, err := RunAggregateContext(context.Background(), afcs, nodeResolver(root), aopt, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := state.Finalize(); len(got) != 1 || got[0][0].Int != int64(len(plain)) {
		t.Errorf("pooled cached COUNT(*) = %v, want %d", got, len(plain))
	}
	if astats.FSBytesRead != 0 {
		t.Errorf("pooled warm pass read %d fs bytes", astats.FSBytesRead)
	}
}
