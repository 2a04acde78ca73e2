package bench

import (
	"strings"
	"testing"

	"datavirt/internal/core"
)

func quickCfg(t *testing.T) Config {
	t.Helper()
	return Config{WorkDir: t.TempDir(), Quick: true, Trials: 1}
}

// TestAllExperimentsQuick smoke-runs every experiment at tiny scale:
// the full setup → measure → cross-check pipeline of each figure must
// complete and produce a plausible table.
func TestAllExperimentsQuick(t *testing.T) {
	cfg := quickCfg(t)
	for _, e := range Experiments() {
		tbl, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if tbl.ID != e.ID {
			t.Errorf("%s: table id = %s", e.ID, tbl.ID)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", e.ID)
		}
		out := tbl.Format()
		if !strings.Contains(out, e.ID) {
			t.Errorf("%s: Format output missing id:\n%s", e.ID, out)
		}
		t.Logf("\n%s", out)
	}
}

// TestDatasetReuse runs an experiment twice in the same workdir; the
// second run must reuse the generated data (markers present) and agree
// on row counts.
func TestDatasetReuse(t *testing.T) {
	cfg := quickCfg(t)
	t1, err := RunFig9a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := RunFig9a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Row-count column (last) must match between runs.
	last := len(t1.Header) - 1
	for i := range t1.Rows {
		if t1.Rows[i][last] != t2.Rows[i][last] {
			t.Errorf("row %d counts differ across reuse: %s vs %s",
				i, t1.Rows[i][last], t2.Rows[i][last])
		}
	}
}

// TestDatasetReuseRegeneratesOnSpecChange reuses one workdir at a
// second scale: the data must be regenerated at the new size, not
// reused from the first run.
func TestDatasetReuseRegeneratesOnSpecChange(t *testing.T) {
	dir := t.TempDir()
	for _, scale := range []float64{0.05, 0.1} {
		cfg := Config{WorkDir: dir, Scale: scale, Trials: 1}
		spec := fig9Spec(cfg)
		root, descPath, err := setupFig9Layout(cfg, spec, "I")
		if err != nil {
			t.Fatal(err)
		}
		svc, err := core.Open(descPath, root)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := prepare(svc, "SELECT REL FROM IparsData")
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := countRows(prep, core.Options{})
		svc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := spec.IparsTotalRows(); got != want {
			t.Errorf("scale %v: %d rows, want %d (data from an earlier spec reused)", scale, got, want)
		}
	}
}

func TestVerify(t *testing.T) {
	cfg := quickCfg(t)
	if err := Verify(cfg); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestRegistry(t *testing.T) {
	if len(IDs()) != len(Experiments()) {
		t.Error("IDs/Experiments mismatch")
	}
	if _, ok := Lookup("fig6"); !ok {
		t.Error("fig6 not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus id found")
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"},
		Notes: []string{"n1"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	out := tbl.Format()
	for _, want := range []string{"== x: T ==", "a    bb", "333  4", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestQuerySets(t *testing.T) {
	tq := titanQueries(20000, 20000, 200)
	if len(tq) != 5 {
		t.Fatalf("titan queries = %d", len(tq))
	}
	for _, q := range tq {
		if q.Paper == "" || q.SQL("T") == "" {
			t.Errorf("Q%d incomplete", q.No)
		}
	}
	iq := iparsQueries(128)
	if len(iq) != 5 {
		t.Fatalf("ipars queries = %d", len(iq))
	}
	if !strings.Contains(iq[3].SQL("I"), "SPEED(") {
		t.Errorf("Q4 missing filter: %s", iq[3].SQL("I"))
	}
}
