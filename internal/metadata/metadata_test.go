package metadata

import (
	"strings"
	"testing"
	"testing/quick"

	"datavirt/internal/schema"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex(`Dataset "ipars1" { LOOP GRID ($DIRID*100+1):500 }`, 1)
	if err != nil {
		t.Fatalf("lex: %v", err)
	}
	kinds := []tokKind{tokIdent, tokString, tokPunct, tokIdent, tokIdent,
		tokPunct, tokPunct, tokIdent, tokPunct, tokNumber, tokPunct, tokNumber,
		tokPunct, tokPunct, tokNumber, tokPunct, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v (kind %d), want kind %d", i, toks[i], toks[i].Kind, k)
		}
	}
	// Adjacency: '$' and DIRID are adjacent; '(' and '$' adjacent; GRID
	// and '(' are separated by a space.
	if !toks[7].Adjacent { // DIRID after $
		t.Error("DIRID should be adjacent to $")
	}
	if toks[5].Adjacent { // '(' after GRID (space between)
		t.Error("'(' should not be adjacent to GRID")
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex(`"unterminated`, 1); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lex("a ; b", 1); err == nil {
		t.Error("unknown character accepted")
	}
}

func TestExprParseEval(t *testing.T) {
	cases := []struct {
		src  string
		env  Env
		want int64
	}{
		{"1+2*3", nil, 7},
		{"(1+2)*3", nil, 9},
		{"10-4-3", nil, 3}, // left assoc
		{"20/3", nil, 6},
		{"20%3", nil, 2},
		{"-5+2", nil, -3},
		{"$DIRID*100+1", Env{"DIRID": 2}, 201},
		{"($DIRID+1)*100", Env{"DIRID": 2}, 300},
		{"DIRID", Env{"DIRID": 3}, 3}, // bare identifier form
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", c.src, err)
			continue
		}
		got, err := e.Eval(c.env)
		if err != nil || got != c.want {
			t.Errorf("Eval(%q, %v) = %d, %v; want %d", c.src, c.env, got, err, c.want)
		}
	}
}

func TestExprErrors(t *testing.T) {
	if _, err := ParseExpr("1+"); err == nil {
		t.Error("dangling operator accepted")
	}
	if _, err := ParseExpr("(1"); err == nil {
		t.Error("unbalanced paren accepted")
	}
	e, err := ParseExpr("$X/$Y")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval(Env{"X": 1, "Y": 0}); err == nil {
		t.Error("division by zero accepted")
	}
	if _, err := e.Eval(Env{"X": 1}); err == nil {
		t.Error("unbound variable accepted")
	}
	m, _ := ParseExpr("$X%$Y")
	if _, err := m.Eval(Env{"X": 1, "Y": 0}); err == nil {
		t.Error("modulo by zero accepted")
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	srcs := []string{"1+2*3", "($A+1)*100", "-$B", "$A%7-2"}
	env := Env{"A": 5, "B": -3}
	for _, src := range srcs {
		e1, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		e2, err := ParseExpr(e1.String())
		if err != nil {
			t.Fatalf("reparse %q (printed %q): %v", src, e1.String(), err)
		}
		v1, _ := e1.Eval(env)
		v2, err := e2.Eval(env)
		if err != nil || v1 != v2 {
			t.Errorf("%q: round trip %d -> %d (%v)", src, v1, v2, err)
		}
	}
}

func TestConstExprFolds(t *testing.T) {
	e, _ := ParseExpr("2*3+4")
	if n, ok := e.(NumberExpr); !ok || n.Value != 10 {
		t.Errorf("ConstExpr did not fold: %v", e)
	}
	e, _ = ParseExpr("$X*2")
	if _, ok := e.(NumberExpr); ok {
		t.Error("ConstExpr folded a variable expression")
	}
}

func TestParseIparsDescriptor(t *testing.T) {
	d, err := Parse(iparsDescriptor)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(d.Schemas) != 1 || d.Schemas[0].Name() != "IPARS" {
		t.Fatalf("schemas: %v", d.Schemas)
	}
	if d.TableSchema() == nil || d.TableSchema().NumAttrs() != 7 {
		t.Fatal("TableSchema not resolved")
	}
	st := d.Storage
	if st.DatasetName != "IparsData" || st.SchemaName != "IPARS" || len(st.Dirs) != 4 {
		t.Fatalf("storage: %+v", st)
	}
	if st.Dirs[2].Node != "osu2" || st.Dirs[2].Path != "ipars" {
		t.Errorf("dir 2 = %+v", st.Dirs[2])
	}
	root := d.Layout
	if root.Name != "IparsData" || root.TypeName != "IPARS" {
		t.Fatalf("root: %+v", root)
	}
	if len(root.IndexAttrs) != 2 || root.IndexAttrs[0] != "REL" || root.IndexAttrs[1] != "TIME" {
		t.Errorf("IndexAttrs = %v", root.IndexAttrs)
	}
	if len(root.Children) != 2 {
		t.Fatalf("children = %d", len(root.Children))
	}
	ip1, ip2 := root.Children[0], root.Children[1]
	if ip1.Name != "ipars1" || ip2.Name != "ipars2" {
		t.Fatalf("child order: %s, %s", ip1.Name, ip2.Name)
	}
	// ipars1: single GRID loop over X Y Z.
	if ip1.Space == nil || len(ip1.Space.Items) != 1 {
		t.Fatal("ipars1 space missing")
	}
	grid, ok := ip1.Space.Items[0].(*Loop)
	if !ok || grid.Var != "GRID" || len(grid.Body) != 3 {
		t.Fatalf("ipars1 loop: %+v", ip1.Space.Items[0])
	}
	lo, err := grid.Lo.Eval(Env{"DIRID": 3})
	if err != nil || lo != 301 {
		t.Errorf("grid.Lo(DIRID=3) = %d, %v", lo, err)
	}
	hi, _ := grid.Hi.Eval(Env{"DIRID": 3})
	if hi != 400 {
		t.Errorf("grid.Hi(DIRID=3) = %d", hi)
	}
	// ipars2: TIME loop wrapping GRID loop over SOIL SGAS.
	tl, ok := ip2.Space.Items[0].(*Loop)
	if !ok || tl.Var != "TIME" {
		t.Fatalf("ipars2 outer loop: %+v", ip2.Space.Items[0])
	}
	gl, ok := tl.Body[0].(*Loop)
	if !ok || gl.Var != "GRID" || len(gl.Body) != 2 {
		t.Fatalf("ipars2 inner loop: %+v", tl.Body[0])
	}
	// ipars2 file clause: DATA$REL with two bindings.
	if len(ip2.Files) != 1 {
		t.Fatalf("ipars2 files: %d", len(ip2.Files))
	}
	fc := ip2.Files[0]
	if got := fc.NameString(); got != "DATA$REL" {
		t.Errorf("name template = %q", got)
	}
	if len(fc.Bindings) != 2 || fc.Bindings[0].Var != "REL" || fc.Bindings[1].Var != "DIRID" {
		t.Errorf("bindings = %+v", fc.Bindings)
	}
}

func TestParseTitanDescriptor(t *testing.T) {
	d, err := Parse(titanDescriptor)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	leaves := d.Layout.Leaves(nil)
	if len(leaves) != 1 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	c := leaves[0]
	if len(c.Chunked) != 8 || c.Chunked[0] != "X" || c.Chunked[7] != "S5" {
		t.Errorf("Chunked = %v", c.Chunked)
	}
	if len(c.IndexFiles) != 1 {
		t.Fatalf("IndexFiles = %d", len(c.IndexFiles))
	}
	if got := c.IndexFiles[0].NameString(); got != "chunks.idx" {
		t.Errorf("index file name = %q", got)
	}
	sch, _, err := d.EffectiveSchema(c)
	if err != nil || sch.Name() != "TITAN" {
		t.Errorf("EffectiveSchema = %v, %v", sch, err)
	}
}

func TestDescriptorStringRoundTrip(t *testing.T) {
	for _, src := range []string{iparsDescriptor, titanDescriptor} {
		d1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		printed := d1.String()
		d2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse printed descriptor: %v\n--- printed ---\n%s", err, printed)
		}
		if d2.String() != printed {
			t.Errorf("print not a fixpoint:\n%s\nvs\n%s", printed, d2.String())
		}
	}
}

func TestExpandLeafIpars(t *testing.T) {
	d, err := Parse(iparsDescriptor)
	if err != nil {
		t.Fatal(err)
	}
	ip1, ip2 := d.Layout.Children[0], d.Layout.Children[1]

	fis, err := ExpandLeaf(d.Storage, ip1)
	if err != nil {
		t.Fatalf("ExpandLeaf(ipars1): %v", err)
	}
	if len(fis) != 4 {
		t.Fatalf("ipars1 files = %d, want 4", len(fis))
	}
	if fis[2].Name != "COORDS" || fis[2].Dir.Node != "osu2" || fis[2].Env["DIRID"] != 2 {
		t.Errorf("ipars1 instance 2 = %+v", fis[2])
	}
	if fis[1].Path() != "ipars/COORDS" {
		t.Errorf("Path = %q", fis[1].Path())
	}

	fis2, err := ExpandLeaf(d.Storage, ip2)
	if err != nil {
		t.Fatalf("ExpandLeaf(ipars2): %v", err)
	}
	if len(fis2) != 16 {
		t.Fatalf("ipars2 files = %d, want 16", len(fis2))
	}
	// Binding order: REL outer, DIRID inner.
	if fis2[0].Name != "DATA0" || fis2[0].Env["DIRID"] != 0 {
		t.Errorf("first = %+v", fis2[0])
	}
	if fis2[5].Name != "DATA1" || fis2[5].Env["DIRID"] != 1 {
		t.Errorf("sixth = %+v", fis2[5])
	}
	names := map[string]int{}
	for _, fi := range fis2 {
		names[fi.Name]++
	}
	for _, want := range []string{"DATA0", "DATA1", "DATA2", "DATA3"} {
		if names[want] != 4 {
			t.Errorf("file %s count = %d, want 4", want, names[want])
		}
	}
}

func TestExpandIndexFilesPairing(t *testing.T) {
	d, err := Parse(titanDescriptor)
	if err != nil {
		t.Fatal(err)
	}
	leaf := d.Layout.Leaves(nil)[0]
	files, err := ExpandLeaf(d.Storage, leaf)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := ExpandIndexFiles(d.Storage, leaf, files)
	if err != nil {
		t.Fatalf("ExpandIndexFiles: %v", err)
	}
	if len(pairs) != 1 || pairs[0].Name != "chunks.idx" {
		t.Errorf("pairs = %v", pairs)
	}
}

func TestExpandErrors(t *testing.T) {
	st := &Storage{DatasetName: "D", SchemaName: "S",
		Dirs: []DirEntry{{Index: 0, Node: "n0", Path: "d"}}}
	// Dir index out of range.
	fc := &FileClause{
		Dir:      NumberExpr{5},
		Name:     []NamePart{{Lit: "f"}},
		Bindings: nil,
	}
	if _, err := expandClause(st, &DatasetNode{Name: "d"}, fc, maxFiles); err == nil {
		t.Error("out-of-range dir accepted")
	}
	// Empty binding range.
	fc2 := &FileClause{
		Dir:      NumberExpr{0},
		Name:     []NamePart{{Lit: "f"}, {Var: "I"}},
		Bindings: []Binding{{Var: "I", Lo: NumberExpr{3}, Hi: NumberExpr{1}, Step: NumberExpr{1}}},
	}
	if _, err := expandClause(st, &DatasetNode{Name: "d"}, fc2, maxFiles); err == nil {
		t.Error("empty range accepted")
	}
	// Non-positive step.
	fc3 := &FileClause{
		Dir:      NumberExpr{0},
		Name:     []NamePart{{Var: "I"}},
		Bindings: []Binding{{Var: "I", Lo: NumberExpr{0}, Hi: NumberExpr{1}, Step: NumberExpr{0}}},
	}
	if _, err := expandClause(st, &DatasetNode{Name: "d"}, fc3, maxFiles); err == nil {
		t.Error("zero step accepted")
	}
}

func TestValidationErrors(t *testing.T) {
	mutations := []struct {
		name string
		src  string
	}{
		{"no storage", "[S]\nA = int\nDataset \"d\" { DATATYPE { S } DATASPACE { A } DATA { DIR[0]/f } }"},
		{"unknown schema ref", strings.Replace(iparsDescriptor, "DatasetDescription = IPARS", "DatasetDescription = NOPE", 1)},
		{"unknown datatype", strings.Replace(iparsDescriptor, "DATATYPE { IPARS }", "DATATYPE { WRONG }", 1)},
		{"unknown dataspace attr", strings.Replace(iparsDescriptor, "SOIL SGAS", "SOIL WAT", 1)},
		{"unknown index attr", strings.Replace(iparsDescriptor, "DATAINDEX { REL TIME }", "DATAINDEX { REL TIME }\nDataset \"bad\" { DATAINDEX { BOGUS } DATASPACE { SOIL } DATA { DIR[0]/x } }", 1)},
		{"unbound template var", strings.Replace(iparsDescriptor, "DATA { DIR[$DIRID]/COORDS DIRID = 0:3:1 }", "DATA { DIR[$DIRID]/COORDS }", 1)},
		{"unbound loop var", strings.Replace(iparsDescriptor, "($DIRID*100+1):(($DIRID+1)*100):1", "($NOPE*100+1):100:1", 1)},
		{"dup dataset name", strings.Replace(iparsDescriptor, `Dataset "ipars2"`, `Dataset "ipars1"`, 1)},
		{"missing component III", iparsDescriptor[:strings.Index(iparsDescriptor, "Dataset \"IparsData\"")]},
	}
	for _, m := range mutations {
		if _, err := Parse(m.src); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestValidateLeafShapeRules(t *testing.T) {
	base := `
[S]
A = int
[D]
DatasetDescription = S
DIR[0] = n0/d
`
	bad := map[string]string{
		"leaf without DATA":      `Dataset "x" { DATATYPE { S } DATASPACE { A } }`,
		"leaf without space":     `Dataset "x" { DATATYPE { S } DATA { DIR[0]/f } }`,
		"space and chunked":      `Dataset "x" { DATATYPE { S } DATASPACE { A } CHUNKED { A } DATA { DIR[0]/f } }`,
		"chunked no indexfile":   `Dataset "x" { DATATYPE { S } DATAINDEX { A } CHUNKED { A } DATA { DIR[0]/f } }`,
		"chunked no dataindex":   `Dataset "x" { DATATYPE { S } CHUNKED { A } DATA { DIR[0]/f } INDEXFILE { DIR[0]/f.idx } }`,
		"chunked unknown attr":   `Dataset "x" { DATATYPE { S } DATAINDEX { A } CHUNKED { B } DATA { DIR[0]/f } INDEXFILE { DIR[0]/f.idx } }`,
		"loop shadowing":         `Dataset "x" { DATATYPE { S } DATASPACE { LOOP I 0:9:1 { LOOP I 0:9:1 { A } } } DATA { DIR[0]/f } }`,
		"empty loop body":        `Dataset "x" { DATATYPE { S } DATASPACE { LOOP I 0:9:1 { } } DATA { DIR[0]/f } }`,
		"const dir out of range": `Dataset "x" { DATATYPE { S } DATASPACE { A } DATA { DIR[7]/f } }`,
		"dup binding":            `Dataset "x" { DATATYPE { S } DATASPACE { A } DATA { DIR[0]/f$I I = 0:1:1 I = 0:1:1 } }`,
		"no datatype anywhere":   `Dataset "x" { DATASPACE { A } DATA { DIR[0]/f } }`,
	}
	for name, layout := range bad {
		if _, err := Parse(base + layout); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A correct minimal descriptor passes.
	good := base + `Dataset "x" { DATATYPE { S } DATASPACE { LOOP A 0:9:1 { A } } DATA { DIR[0]/f } }`
	if _, err := Parse(good); err != nil {
		t.Errorf("good descriptor rejected: %v", err)
	}
}

func TestDatatypeExtraAttrs(t *testing.T) {
	src := `
[S]
A = int
[D]
DatasetDescription = S
DIR[0] = n0/d

Dataset "x" {
  DATATYPE { S AUX = short int W = double }
  DATASPACE { LOOP I 0:4:1 { A AUX W } }
  DATA { DIR[0]/f }
}
`
	d, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	n := d.Layout
	if len(n.ExtraAttrs) != 2 {
		t.Fatalf("ExtraAttrs = %+v", n.ExtraAttrs)
	}
	if n.ExtraAttrs[0].Name != "AUX" || n.ExtraAttrs[0].Kind != schema.Short {
		t.Errorf("extra 0 = %+v", n.ExtraAttrs[0])
	}
	if n.ExtraAttrs[1].Name != "W" || n.ExtraAttrs[1].Kind != schema.Double {
		t.Errorf("extra 1 = %+v", n.ExtraAttrs[1])
	}
}

func TestStorageParseErrors(t *testing.T) {
	bad := []string{
		"[D]\nDatasetDescription = S\n",                                                       // no dirs
		"[D]\nDIR[0] = n/d\n[X]\nA=int\nDataset \"q\" {}",                                     // storage w/o DatasetDescription is schema → parse err later anyway
		"[D]\nDatasetDescription = S\nDIR[0] = n/d\nDIR[0] = n/d\n",                           // dup index
		"[D]\nDatasetDescription = S\nDIR[1] = n/d\n",                                         // not from 0
		"[D]\nDatasetDescription = S\nDIR[x] = n/d\n",                                         // bad index
		"[D]\nDatasetDescription = S\nDIR[0] = /d\n",                                          // empty node
		"[D]\nDatasetDescription = S\nDatasetDescription = T\nDIR[0]=n",                       // dup key
		"[D]\nDatasetDescription = S\nWEIRD = 1\n",                                            // unknown key
		"stray line\n[D]\nDatasetDescription = S\nDIR[0] = n\n",                               // content before section
		"[D]\nDatasetDescription = S\nDIR[0] = n\n[D2]\nDatasetDescription = S\nDIR[0] = n\n", // two storage sections
	}
	for _, src := range bad {
		full := "[S]\nA = int\n" + src + "\nDataset \"x\" { DATATYPE { S } DATASPACE { A } DATA { DIR[0]/f } }"
		if _, err := Parse(full); err == nil {
			t.Errorf("storage source accepted:\n%s", src)
		}
	}
}

// TestEnvAgrees pins the pairing key: two environments agree on the
// variables they share exactly when their keys over those variables
// are equal.
func TestEnvAgrees(t *testing.T) {
	if envKey(Env{"A": 1, "B": 2}, []string{"B"}) != envKey(Env{"B": 2, "C": 9}, []string{"B"}) {
		t.Error("agreeing envs reported as disagreeing")
	}
	if envKey(Env{"A": 1}, []string{"A"}) == envKey(Env{"A": 2}, []string{"A"}) {
		t.Error("disagreeing envs reported as agreeing")
	}
	if envKey(Env{}, nil) != envKey(Env{"A": 1}, nil) {
		t.Error("disjoint envs should agree")
	}
	if envKey(Env{"A": 1, "B": 23}, []string{"A", "B"}) == envKey(Env{"A": 12, "B": 3}, []string{"A", "B"}) {
		t.Error("keys of different value lists collide")
	}
}

// Property: expanding a single-binding clause yields exactly the range
// ⌊(hi-lo)/step⌋+1 instances, with distinct names when the var is in the
// template.
func TestExpandCountQuick(t *testing.T) {
	st := &Storage{DatasetName: "D", SchemaName: "S",
		Dirs: []DirEntry{{Index: 0, Node: "n", Path: "p"}}}
	f := func(loRaw int16, span uint8, stepRaw uint8) bool {
		lo := int64(loRaw)
		step := int64(stepRaw%7) + 1
		hi := lo + int64(span)
		fc := &FileClause{
			Dir:  NumberExpr{0},
			Name: []NamePart{{Lit: "f"}, {Var: "I"}},
			Bindings: []Binding{
				{Var: "I", Lo: NumberExpr{lo}, Hi: NumberExpr{hi}, Step: NumberExpr{step}},
			},
		}
		fis, err := expandClause(st, &DatasetNode{Name: "d"}, fc, maxFiles)
		if err != nil {
			return false
		}
		want := (hi-lo)/step + 1
		if int64(len(fis)) != want {
			return false
		}
		seen := map[string]bool{}
		for _, fi := range fis {
			if seen[fi.Name] {
				return false
			}
			seen[fi.Name] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
