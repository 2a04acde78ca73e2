package lint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datavirt/internal/metadata"
)

// header is a minimal valid schema + storage prefix shared by the bad
// examples; the layout under test starts on line 8.
const header = `[S]
I = int
J = int
A = float
B = double

[Data]
DatasetDescription = S
DIR[0] = node0/d0
DIR[1] = node1/d1

`

// checkSrc runs the checker over header+layout and returns diagnostics.
func checkSrc(t *testing.T, layout string) []metadata.Diagnostic {
	t.Helper()
	return Check("test.dvd", header+layout)
}

// wantDiag asserts exactly one diagnostic of the given code exists and
// returns it.
func wantDiag(t *testing.T, ds []metadata.Diagnostic, code string) metadata.Diagnostic {
	t.Helper()
	var found []metadata.Diagnostic
	for _, d := range ds {
		if d.Code == code {
			found = append(found, d)
		}
	}
	if len(found) != 1 {
		t.Fatalf("want exactly 1 %q diagnostic, got %d in %v", code, len(found), ds)
	}
	return found[0]
}

func TestSyntaxDiagnostic(t *testing.T) {
	ds := Check("bad.dvd", "Dataset \"x\" {")
	d := wantDiag(t, ds, "syntax")
	if d.Severity != metadata.SevError {
		t.Errorf("severity = %s, want error", d.Severity)
	}
}

func TestSpanOverlap(t *testing.T) {
	ds := checkSrc(t, `Dataset "d" {
  DATATYPE { S }
  DATASPACE { LOOP I 0:5:1 { A B A } }
  DATA { DIR[0]/f }
}
`)
	d := wantDiag(t, ds, "span-overlap")
	if d.Line != 14 {
		t.Errorf("line = %d, want 14 (the second A)", d.Line)
	}
	if !strings.Contains(d.Message, `"A"`) {
		t.Errorf("message %q does not name the attribute", d.Message)
	}
}

func TestLoopExtentEmptyRange(t *testing.T) {
	ds := checkSrc(t, `Dataset "d" {
  DATATYPE { S }
  DATASPACE { LOOP I 5:1:1 { A } }
  DATA { DIR[0]/f }
}
`)
	d := wantDiag(t, ds, "loop-extent")
	if !strings.Contains(d.Message, "empty range 5:1") {
		t.Errorf("message = %q", d.Message)
	}
	if d.Line != 14 {
		t.Errorf("line = %d, want 14", d.Line)
	}
}

func TestLoopExtentBadStep(t *testing.T) {
	ds := checkSrc(t, `Dataset "d" {
  DATATYPE { S }
  DATASPACE { LOOP I 0:5:0 { A } }
  DATA { DIR[0]/f }
}
`)
	if d := wantDiag(t, ds, "loop-extent"); !strings.Contains(d.Message, "non-positive step") {
		t.Errorf("message = %q", d.Message)
	}
}

func TestLoopBindingCollision(t *testing.T) {
	ds := checkSrc(t, `Dataset "d" {
  DATATYPE { S }
  DATASPACE { LOOP I 0:5:1 { A } }
  DATA { DIR[0]/f$I I = 0:5:1 }
}
`)
	if d := wantDiag(t, ds, "loop-extent"); !strings.Contains(d.Message, "also bound") {
		t.Errorf("message = %q", d.Message)
	}
}

func TestDimMismatch(t *testing.T) {
	ds := checkSrc(t, `Dataset "root" {
  DATATYPE { S }
  Dataset "d1" {
    DATASPACE { LOOP I 0:5:1 { A } }
    DATA { DIR[0]/f0 }
  }
  Dataset "d2" {
    DATASPACE { LOOP I 0:3:1 { B } }
    DATA { DIR[0]/f1 }
  }
}
`)
	d := wantDiag(t, ds, "dim-mismatch")
	if d.Severity != metadata.SevWarning {
		t.Errorf("severity = %s, want warning", d.Severity)
	}
	if !strings.Contains(d.Message, `"I"`) {
		t.Errorf("message = %q", d.Message)
	}
}

func TestTypeConflict(t *testing.T) {
	ds := checkSrc(t, `Dataset "d" {
  DATATYPE { S A = int }
  DATASPACE { LOOP I 0:5:1 { A B } }
  DATA { DIR[0]/f }
}
`)
	d := wantDiag(t, ds, "type-conflict")
	if !strings.Contains(d.Message, "4 bytes") || !strings.Contains(d.Message, `"A"`) {
		t.Errorf("message = %q", d.Message)
	}
}

func TestAttrUnknown(t *testing.T) {
	ds := checkSrc(t, `Dataset "d" {
  DATATYPE { S }
  DATASPACE { LOOP I 0:5:1 { A NOPE } }
  DATA { DIR[0]/f }
}
`)
	d := wantDiag(t, ds, "attr-unknown")
	if d.Line != 14 {
		t.Errorf("line = %d, want 14", d.Line)
	}
}

func TestAttrUnbound(t *testing.T) {
	ds := checkSrc(t, `Dataset "d" {
  DATATYPE { S }
  DATASPACE { LOOP I 0:5:1 { A } }
  DATA { DIR[0]/f DIR[1]/g }
}
`)
	// J and B are never laid out (I is a loop var, A is spanned).
	var names []string
	for _, d := range ds {
		if d.Code == "attr-unbound" {
			names = append(names, d.Message)
			if d.Severity != metadata.SevWarning {
				t.Errorf("severity = %s, want warning", d.Severity)
			}
			if d.Line == 0 {
				t.Errorf("no position on %v", d)
			}
		}
	}
	if len(names) != 2 {
		t.Fatalf("want 2 attr-unbound (J, B), got %v", names)
	}
}

func TestDirUnused(t *testing.T) {
	ds := checkSrc(t, `Dataset "d" {
  DATATYPE { S }
  DATASPACE { LOOP I 0:5:1 { A B J } }
  DATA { DIR[0]/f }
}
`)
	d := wantDiag(t, ds, "dir-unused")
	if d.Line != 10 {
		t.Errorf("line = %d, want 10 (the DIR[1] line)", d.Line)
	}
}

func TestDirRange(t *testing.T) {
	ds := checkSrc(t, `Dataset "d" {
  DATATYPE { S }
  DATASPACE { LOOP I 0:5:1 { A } }
  DATA { DIR[7]/f }
}
`)
	d := wantDiag(t, ds, "dir-range")
	if !strings.Contains(d.Message, "DIR[7]") {
		t.Errorf("message = %q", d.Message)
	}
	// Expansion failed, so dir-unused must be suppressed.
	for _, other := range ds {
		if other.Code == "dir-unused" {
			t.Errorf("dir-unused not suppressed after failed expansion: %v", other)
		}
	}
}

func TestFileOverlapAcrossClauses(t *testing.T) {
	ds := checkSrc(t, `Dataset "root" {
  DATATYPE { S }
  Dataset "d1" {
    DATASPACE { LOOP I 0:5:1 { A } }
    DATA { DIR[0]/same }
  }
  Dataset "d2" {
    DATASPACE { LOOP J 0:3:1 { B } }
    DATA { DIR[0]/same }
  }
}
`)
	d := wantDiag(t, ds, "file-overlap")
	if !strings.Contains(d.Message, "node0:d0/same") {
		t.Errorf("message = %q", d.Message)
	}
}

func TestFileOverlapWithinClause(t *testing.T) {
	// The binding variable I appears in neither the dir expression nor
	// the name template, so both of its values produce the same file.
	ds := checkSrc(t, `Dataset "d" {
  DATATYPE { S }
  DATASPACE { LOOP J 0:3:1 { A B } }
  DATA { DIR[0]/f I = 0:1:1 }
}
`)
	if got := wantDiag(t, ds, "file-overlap"); got.Severity != metadata.SevError {
		t.Errorf("severity = %s", got.Severity)
	}
}

func TestFileClauseBadBinding(t *testing.T) {
	ds := checkSrc(t, `Dataset "d" {
  DATATYPE { S }
  DATASPACE { LOOP J 0:3:1 { A } }
  DATA { DIR[0]/f$I I = 5:1:1 }
}
`)
	d := wantDiag(t, ds, "file-clause")
	if !strings.Contains(d.Message, "empty range") {
		t.Errorf("message = %q", d.Message)
	}
}

func TestFileBudgetDiagnostic(t *testing.T) {
	// ~10^12 combinations: counted against the file budget, never
	// enumerated, and reported on the clause; dir usage stays unknown.
	ds := checkSrc(t, `Dataset "d" {
  DATATYPE { S }
  DATASPACE { LOOP J 0:3:1 { A } }
  DATA { DIR[0]/f.$I.$K I = 0:999999:1 K = 0:999999:1 }
}
`)
	d := wantDiag(t, ds, "file-budget")
	if d.Severity != metadata.SevError || d.Line != 15 || d.Col != 10 {
		t.Errorf("file-budget diagnostic = %v, want an error at 15:10 (the DIR keyword)", d)
	}
	for _, d := range ds {
		if d.Code == "dir-unused" {
			t.Errorf("dir-unused reported despite an unexpanded clause: %v", d)
		}
	}
}

// TestFixtureDiagnostics pins every diagnostic on the fixtures of this
// package's tests, the FuzzCheck seeds and the codegen descriptors.
// testdata/diagnostics.json was recorded from the checker that ran
// beside a separate Validate; the only entries that changed when the
// two merged are the former coarse "validate" diagnostics, now
// positioned structural codes, and the two huge-range seeds, now
// file-budget errors.
func TestFixtureDiagnostics(t *testing.T) {
	raw, err := os.ReadFile("testdata/diagnostics.json")
	if err != nil {
		t.Fatal(err)
	}
	var fixtures []struct {
		Src   string   `json:"src"`
		Diags []string `json:"diags"`
	}
	if err := json.Unmarshal(raw, &fixtures); err != nil {
		t.Fatal(err)
	}
	for _, f := range fixtures {
		got := []string{}
		for _, d := range Check("t", f.Src) {
			got = append(got, strings.TrimPrefix(d.String(), "t:"))
		}
		if strings.Join(got, "\n") != strings.Join(f.Diags, "\n") {
			t.Errorf("diagnostics changed for\n%s\ngot:  %q\nwant: %q", f.Src, got, f.Diags)
		}
	}
}

// TestShippedDescriptorsClean pins the acceptance criterion: every
// descriptor the repo ships parses and checks without diagnostics.
func TestShippedDescriptorsClean(t *testing.T) {
	paths, err := filepath.Glob("../../codegen/testdata/*.dvd")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped descriptors found: %v", err)
	}
	for _, p := range paths {
		ds, err := CheckFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, d := range ds {
			t.Errorf("%s: unexpected diagnostic: %s", p, d)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := metadata.Diagnostic{File: "x.dvd", Line: 3, Col: 7, Severity: metadata.SevError, Code: "span-overlap", Message: "boom"}
	if got, want := d.String(), "x.dvd:3:7: error: boom [span-overlap]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	d2 := metadata.Diagnostic{File: "x.dvd", Severity: metadata.SevWarning, Code: "c", Message: "m"}
	if got, want := d2.String(), "x.dvd: warning: m [c]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// replicaSrc builds a two-directory descriptor whose DIR lines are
// given verbatim, with a layout using both directories.
func replicaSrc(dir0, dir1 string) string {
	return `[S]
I = int
A = float

[Data]
DatasetDescription = S
DIR[0] = ` + dir0 + `
DIR[1] = ` + dir1 + `

Dataset "d" {
  DATATYPE { S }
  DATASPACE { LOOP I 0:5:1 { A } }
  DATA { DIR[$DIRID]/f DIRID = 0:1:1 }
}
`
}

func TestReplicaDup(t *testing.T) {
	ds := Check("test.dvd", replicaSrc("NODES node0, node0/d0", "node1/d1"))
	d := wantDiag(t, ds, "replica-dup")
	if d.Severity != metadata.SevError {
		t.Errorf("severity = %s, want error", d.Severity)
	}
	if d.Line != 7 {
		t.Errorf("line = %d, want 7 (the DIR[0] line)", d.Line)
	}
	if !strings.Contains(d.Message, `"node0"`) {
		t.Errorf("message %q does not name the node", d.Message)
	}
}

func TestReplicaUnknown(t *testing.T) {
	ds := Check("test.dvd", replicaSrc("NODES node0, standby/d0", "node1/d1"))
	d := wantDiag(t, ds, "replica-unknown")
	if d.Severity != metadata.SevWarning {
		t.Errorf("severity = %s, want warning", d.Severity)
	}
	if !strings.Contains(d.Message, `"standby"`) {
		t.Errorf("message %q does not name the node", d.Message)
	}
	if metadata.HasErrors(ds) {
		t.Errorf("warning-only descriptor reported errors: %v", ds)
	}
}

// TestReplicaChainClean checks the canonical chained replication
// layout — every node primary of one directory, replica of another —
// produces no replica diagnostics.
func TestReplicaChainClean(t *testing.T) {
	ds := Check("test.dvd", replicaSrc("NODES node0, node1/d0", "NODES node1, node0/d1"))
	for _, d := range ds {
		if strings.HasPrefix(d.Code, "replica-") {
			t.Errorf("clean chained replica set flagged: %v", d)
		}
	}
}
