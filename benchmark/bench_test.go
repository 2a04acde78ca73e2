package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesProgram holds BENCHMARK.json and the program's own
// tables equal: every workload with its reason, every metric with its
// unit, direction and bound.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}

func quickConfig(t *testing.T, trace bool) *config {
	dir := t.TempDir()
	return &config{workloads: workloads, seed: 7, seconds: 0.5, trace: trace, quick: true,
		workdir: filepath.Join(dir, "work"), keep: true, out: filepath.Join(dir, "out", "bench.json"),
		rounds: 5, setups: 2, pairs: 2, maxClients: 2}
}

// TestSmokeUntraced runs every workload at -quick scale: every
// end-to-end metric is emitted and non-zero, and every result verifies.
func TestSmokeUntraced(t *testing.T) {
	cfg := quickConfig(t, false)
	d, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Claim != nil {
		t.Errorf("the benchmark claims %q; it must claim nothing", *d.Claim)
	}
	for _, w := range workloads {
		wd := d.workload(w.name)
		if wd == nil {
			t.Fatalf("%s: not in the output", w.name)
		}
		if wd.Attempted == 0 || wd.Failed != 0 || wd.FirstError != "" {
			t.Errorf("%s: %d attempted, %d failed, first error %q", w.name, wd.Attempted, wd.Failed, wd.FirstError)
		}
		for _, def := range endToEnd {
			m, ok := wd.metric(def.Name)
			if !ok || m.metricDef != def || !(m.Value > 0) || len(m.Rounds) == 0 {
				t.Errorf("%s: metric %s = %+v (present %v)", w.name, def.Name, m, ok)
			}
		}
		if m, ok := wd.metric("error_rate"); !ok || m.Value != 0 {
			t.Errorf("%s: error_rate = %+v (present %v)", w.name, m, ok)
		}
	}
	var buf bytes.Buffer
	if err := d.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not a result object: %v", err)
	}
	if !last.Correct || last.Attempted < 1 || len(last.Metrics) != len(endToEnd) {
		t.Errorf("last line: %+v", last)
	}
	// The file round-trips and compares clean against itself.
	if err := writeJSON(cfg.out, d); err != nil {
		t.Fatal(err)
	}
	if regressed, err := compareFiles(&buf, cfg.out, cfg.out); err != nil || regressed {
		t.Errorf("a run compared with itself: regressed %v, err %v", regressed, err)
	}
}

// TestSmokeTraced runs the traced pass: every per-layer metric is
// emitted, results verify, and the span trees close.
func TestSmokeTraced(t *testing.T) {
	cfg := quickConfig(t, true)
	d, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wd := d.workload(w.name)
		if wd == nil {
			t.Fatalf("%s: not in the output", w.name)
		}
		if wd.Attempted == 0 || wd.Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed: %s", w.name, wd.Attempted, wd.Failed, wd.FirstError)
		}
		if len(wd.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(wd.Metrics), len(perLayer))
		}
		for _, m := range wd.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 && m.Name != "trace.overhead_pct" {
				t.Errorf("%s: %s = %v", w.name, m.Name, m.Value)
			}
		}
		positive := []string{"metadata.open_ms", "sqlparser.parse_us", "afc.generate_us", "extractor.rows_per_s",
			"handwritten.rows_per_s", "raw.read_mb_s", "query.fold_ns_per_row", "table.decode_ns_per_row",
			"sparse.load_us", "cluster.wire_mb_s"}
		if w.sidecars {
			positive = append(positive, "sparse.blocks_skipped", "sparse.bytes_saved_ratio")
		}
		for _, name := range positive {
			if m, _ := wd.metric(name); !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
			}
		}

		b, err := os.ReadFile(filepath.Join(filepath.Dir(cfg.out), "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(b, &tf); err != nil {
			t.Fatal(err)
		}
		self, root, err := selfTimes(tf.Spans)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		var sum int64
		for _, ns := range self {
			sum += ns
		}
		if root <= 0 || math.Abs(float64(sum-root)) > 0.01*float64(root) {
			t.Errorf("%s: self times sum to %d ns, the op spans to %d ns", w.name, sum, root)
		}
		want := "core.run"
		if w.cluster {
			want = "coord.query"
		}
		if _, ok := self[want]; !ok || self["op"] < 0 || self["verify"] <= 0 {
			t.Errorf("%s: span self times %v lack %s, op or verify", w.name, self, want)
		}
	}
}

func TestSelfTimesRejectsBrokenTrees(t *testing.T) {
	ok := []span{{ID: 1, Name: "op", Start: 0, End: 100}, {ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 90}}
	self, root, err := selfTimes(ok)
	if err != nil || root != 100 || self["op"] != 20 || self["a"] != 30 || self["b"] != 50 {
		t.Errorf("self %v root %d err %v", self, root, err)
	}
	escapes := []span{{ID: 1, Name: "op", Start: 0, End: 100}, {ID: 2, Parent: 1, Name: "a", Start: 10, End: 140}}
	if _, _, err := selfTimes(escapes); err == nil {
		t.Error("a child outliving its parent was accepted")
	}
	overlap := []span{{ID: 1, Name: "op", Start: 0, End: 100}, {ID: 2, Parent: 1, Name: "a", Start: 10, End: 80},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 90}}
	if _, _, err := selfTimes(overlap); err == nil {
		t.Error("overlapping children were accepted")
	}
}

// TestCompareVerdicts checks each verdict and the exit condition on
// fixture files.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	fixture := func(name string, lat, latSpread, qps, errRate float64) string {
		wd := &workloadDoc{Name: "scan.full", Metrics: []measured{
			{metricDef: metricDef{"lat_p50_ms", "ms", "lower", 0.10}, Value: lat, Spread: latSpread},
			{metricDef: metricDef{"queries_per_s", "1/s", "higher", 0.10}, Value: qps, Spread: 0.01},
		}, Ungated: []measured{{metricDef: metricDef{Name: "error_rate", Unit: "ratio", Better: "lower"}, Value: errRate}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, &doc{Commit: name, Workloads: []*workloadDoc{wd}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := fixture("base.json", 100, 0.02, 50, 0)
	for _, tc := range []struct {
		name          string
		path          string
		latV, qpsV    string
		wantRegressed bool
	}{
		{"same", fixture("same.json", 103, 0.02, 49, 0), within, within, false},
		{"slower", fixture("slower.json", 115, 0.02, 50, 0), worse, within, true},
		{"faster", fixture("faster.json", 85, 0.02, 60, 0), better, better, false},
		{"noisy", fixture("noisy.json", 130, 0.2, 50, 0), unresolved, within, false},
		{"lower-throughput", fixture("lowqps.json", 100, 0.02, 40, 0), within, worse, true},
		{"errors", fixture("errors.json", 100, 0.02, 50, 0.01), within, within, true},
	} {
		var buf bytes.Buffer
		regressed, err := compareFiles(&buf, base, tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rows := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(rows) != 4 {
			t.Fatalf("%s: %d rows:\n%s", tc.name, len(rows), buf.String())
		}
		if !strings.HasSuffix(rows[1], tc.latV) || !strings.HasSuffix(rows[2], tc.qpsV) || regressed != tc.wantRegressed {
			t.Errorf("%s: want lat %s, qps %s, regressed %v; got regressed %v:\n%s",
				tc.name, tc.latV, tc.qpsV, tc.wantRegressed, regressed, buf.String())
		}
		if tc.name == "errors" && !strings.HasSuffix(rows[3], worse) {
			t.Errorf("errors: a higher error_rate is not %s:\n%s", worse, buf.String())
		}
	}
}

// TestQuartilesMatchPython pins overRounds to what Python's
// statistics.quantiles(v, n=4) returns, the rule the driver applies.
func TestQuartilesMatchPython(t *testing.T) {
	s := overRounds(metricDef{}, []float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if s.Q1 != 3.5 || s.Value != 13.5 || s.Q3 != 31 {
		t.Errorf("quartiles %+v, want 3.5 / 13.5 / 31", s)
	}
	if pct, v := tail(sorted(make([]float64, 200))); pct != 95 || v != 0 {
		t.Errorf("tail of 200 samples: p%v = %v, want p95", pct, v)
	}
}

// TestOpsAreAFunctionOfTheSeed: the same seed gives the same inputs,
// another seed other inputs, and the fixed mixes hold.
func TestOpsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := draw{s: 5}, draw{s: 6}
		var differ bool
		for i := int64(0); i < 200; i++ {
			if w.opAt(w, a, i) != w.opAt(w, a, i) {
				t.Fatalf("%s: op %d is not a function of the seed", w.name, i)
			}
			if w.opAt(w, a, i) != w.opAt(w, b, i) {
				differ = true
			}
		}
		// The two L0 workloads vary only their data with the seed.
		if !differ && w.layout != "L0" {
			t.Errorf("%s: seeds 5 and 6 give the same ops", w.name)
		}
	}
	counts := map[byte]int{}
	for i := 0; i < len(clusterMix); i++ {
		counts[clusterMix[i]]++
	}
	if counts['p'] != 6 || counts['w'] != 6 || counts['a'] != 5 || counts['m'] != 3 {
		t.Errorf("cluster mix %v, want 30/30/25/15 %% of 20", counts)
	}
}
