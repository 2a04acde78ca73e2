package metadata

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

const budgetHeader = `[S]
I = int
J = int
A = float
[D]
DatasetDescription = S
DIR[0] = n0/d
Dataset "d" {
 DATATYPE { S }
 DATASPACE { A }
 DATA { DIR[0]/f$I.$J I = 0:%d:1 J = 0:%d:1 }
}
`

// wantCode asserts err is a *Error with the given code at pos.
func wantCode(t *testing.T, err error, code string, pos Pos) {
	t.Helper()
	var me *Error
	if !errors.As(err, &me) {
		t.Fatalf("error = %v, want a *metadata.Error", err)
	}
	if me.Code != code || me.Pos != pos {
		t.Errorf("error %v: code %s at %s, want %s at %s", err, me.Code, me.Pos, code, pos)
	}
}

// TestFileBudgetParse: a million-file descriptor is refused at Parse,
// on its DATA clause, by counting rather than enumerating.
func TestFileBudgetParse(t *testing.T) {
	src := fmt.Sprintf(budgetHeader, 999, 999)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := Parse(src)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	wantCode(t, err, "file-budget", Pos{Line: 11, Col: 9})
	if elapsed > 10*time.Millisecond {
		t.Errorf("Parse took %v, want < 10ms", elapsed)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("Parse allocated %d bytes, want < 1 MB", alloc)
	}
}

// TestFileBudgetExpandLeaf: descriptors built without validation are
// bounded too — ExpandLeaf refuses a 90,000-file leaf with the same
// typed error.
func TestFileBudgetExpandLeaf(t *testing.T) {
	d, err := ParseUnvalidated(fmt.Sprintf(budgetHeader, 299, 299))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ExpandLeaf(d.Storage, d.Layout)
	wantCode(t, err, "file-budget", Pos{Line: 11, Col: 9})
	// Just under the budget still expands.
	d, err = Parse(fmt.Sprintf(budgetHeader, 255, 255))
	if err != nil {
		t.Fatal(err)
	}
	files, err := ExpandLeaf(d.Storage, d.Layout)
	if err != nil || len(files) != maxFiles {
		t.Fatalf("ExpandLeaf = %d files, %v; want %d", len(files), err, maxFiles)
	}
}

// TestFileBudgetSpansLeaves: the budget is per descriptor, so two
// leaves of 40,000 files each are refused on the second leaf's clause.
func TestFileBudgetSpansLeaves(t *testing.T) {
	src := `[S]
I = int
A = float
B = float
[D]
DatasetDescription = S
DIR[0] = n0/d
Dataset "r" {
 DATATYPE { S }
 Dataset "a" { DATASPACE { A } DATA { DIR[0]/a$I I = 0:39999:1 } }
 Dataset "b" { DATASPACE { B } DATA { DIR[0]/b$I I = 0:39999:1 } }
}
`
	_, err := Parse(src)
	wantCode(t, err, "file-budget", Pos{Line: 11, Col: 39})
}

const pairHeader = `[T]
X = int
A = float
[D]
DatasetDescription = T
DIR[0] = n0/t
Dataset "t" {
 DATATYPE { T }
 DATAINDEX { X }
 CHUNKED { X A }
`

func TestIndexPairingNoMatch(t *testing.T) {
	src := pairHeader + " DATA { DIR[0]/c$P P = 0:3:1 }\n INDEXFILE { DIR[0]/i$P P = 0:2:1 }\n}\n"
	_, err := Parse(src)
	wantCode(t, err, "index-pair", Pos{Line: 11, Col: 9})
	if !strings.Contains(err.Error(), "no index file matches data file n0:t/c3") {
		t.Errorf("error = %v", err)
	}
	d, err := ParseUnvalidated(src)
	if err != nil {
		t.Fatal(err)
	}
	files, err := ExpandLeaf(d.Storage, d.Layout)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ExpandIndexFiles(d.Storage, d.Layout, files)
	wantCode(t, err, "index-pair", Pos{Line: 11, Col: 9})
}

func TestIndexPairingAmbiguous(t *testing.T) {
	// The index clause binds no variable the data clause binds, so every
	// index file matches every data file.
	src := pairHeader + " DATA { DIR[0]/c$P P = 0:1:1 }\n INDEXFILE { DIR[0]/i$Q Q = 0:1:1 }\n}\n"
	_, err := Parse(src)
	wantCode(t, err, "index-pair", Pos{Line: 11, Col: 9})
	if !strings.Contains(err.Error(), "2 index files match data file n0:t/c0") {
		t.Errorf("error = %v", err)
	}
}

// TestCheckRejectsWhatCompileRejects covers the layouts the compiler
// refuses that Validate used to let through: each is now rejected at
// Parse with a positioned code.
func TestCheckRejectsWhatCompileRejects(t *testing.T) {
	const hdr = "[S]\nI = int\nA = float\nB = float\n[D]\nDatasetDescription = S\nDIR[0] = n0/d\nDIR[1] = n1/d\n"
	cases := []struct {
		name, layout, code string
		pos                Pos
	}{
		{"mixed leaf styles",
			"Dataset \"r\" { DATATYPE { S } DATAINDEX { I }\n Dataset \"a\" { DATASPACE { A } DATA { DIR[0]/a } }\n Dataset \"b\" { CHUNKED { I B } DATA { DIR[1]/b } INDEXFILE { DIR[1]/b.idx } } }",
			"leaf-shape", Pos{Line: 11, Col: 2}},
		{"chunked index attribute outside the record",
			"Dataset \"c\" { DATATYPE { S } DATAINDEX { B } CHUNKED { I A } DATA { DIR[0]/c } INDEXFILE { DIR[0]/c.idx } }",
			"attr-unknown", Pos{Line: 9, Col: 1}},
		{"loop bound on an enclosing loop variable",
			"Dataset \"x\" { DATATYPE { S } DATASPACE { LOOP I 0:3:1 { LOOP J 0:$I:1 { A } } } DATA { DIR[0]/f } }",
			"var-unbound", Pos{Line: 9, Col: 57}},
		{"one variable looped over two ranges",
			"Dataset \"x\" { DATATYPE { S } DATASPACE { LOOP I 0:3:1 { A } LOOP I 0:4:1 { B } } DATA { DIR[0]/f } }",
			"loop-extent", Pos{Line: 9, Col: 61}},
		{"loop bound bound by only one of two clauses",
			"Dataset \"x\" { DATATYPE { S } DATASPACE { LOOP I 0:$K:1 { A } } DATA { DIR[0]/f$K K = 1:2:1 DIR[1]/g } }",
			"loop-extent", Pos{Line: 9, Col: 42}},
		{"INDEXFILE on a DATASPACE leaf",
			"Dataset \"x\" { DATATYPE { S } DATASPACE { A } DATA { DIR[0]/f } INDEXFILE { DIR[0]/f.idx } }",
			"leaf-shape", Pos{Line: 9, Col: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(hdr + tc.layout)
			wantCode(t, err, tc.code, tc.pos)
		})
	}
}

// TestDataIndexNamesLeafVariables: a leaf's DATAINDEX may name its own
// loop and binding variables as well as attributes, but nothing else.
func TestDataIndexNamesLeafVariables(t *testing.T) {
	const hdr = "[S]\nA = float\n[D]\nDatasetDescription = S\nDIR[0] = n0/d\n"
	good := hdr + `Dataset "x" { DATATYPE { S } DATAINDEX { G P A } DATASPACE { LOOP G 0:3:1 { A } } DATA { DIR[0]/f$P P = 0:1:1 } }`
	if _, err := Parse(good); err != nil {
		t.Errorf("DATAINDEX over leaf variables rejected: %v", err)
	}
	bad := hdr + `Dataset "x" { DATATYPE { S } DATAINDEX { Q } DATASPACE { LOOP G 0:3:1 { A } } DATA { DIR[0]/f } }`
	_, err := Parse(bad)
	wantCode(t, err, "attr-unknown", Pos{Line: 6, Col: 1})
}
