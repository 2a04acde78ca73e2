// Edge-case coverage for Validate, in an external test package so the
// cases can also be cross-checked against the descriptor linter
// (internal/metadata/lint imports metadata, so the in-package tests
// cannot import it back).
package metadata_test

import (
	"errors"
	"strings"
	"testing"

	"datavirt/internal/metadata"
	desclint "datavirt/internal/metadata/lint"
)

const edgeHeader = `
[S]
A = int
B = float
[D]
DatasetDescription = S
DIR[0] = n0/d
`

func hasCode(ds []metadata.Diagnostic, code string) bool {
	for _, d := range ds {
		if d.Code == code {
			return true
		}
	}
	return false
}

// wantRejected asserts that Parse rejects src with a typed *Error of
// the given code at pos, and that the descriptor linter reports the
// same code at the same place.
func wantRejected(t *testing.T, src, code string, pos metadata.Pos) {
	t.Helper()
	_, err := metadata.Parse(src)
	var me *metadata.Error
	if !errors.As(err, &me) {
		t.Fatalf("Parse error = %v, want a *metadata.Error", err)
	}
	if me.Code != code || me.Pos != pos {
		t.Errorf("Parse error %v: code %s at %s, want %s at %s", err, me.Code, me.Pos, code, pos)
	}
	for _, d := range desclint.Check("edge.dvd", src) {
		if d.Code == code && d.Line == pos.Line && d.Col == pos.Col {
			return
		}
	}
	t.Errorf("descriptor linter did not report %s at %s", code, pos)
}

// A LOOP whose constant bounds describe zero iterations describes an
// empty dataspace; Parse rejects it where the LOOP is.
func TestZeroExtentLoopRejected(t *testing.T) {
	src := edgeHeader + `Dataset "x" { DATATYPE { S } DATASPACE { LOOP I 5:1:1 { A } } DATA { DIR[0]/f } }`
	wantRejected(t, src, "loop-extent", metadata.Pos{Line: 8, Col: 42})
}

// Duplicate attribute names inside one schema section are rejected at
// parse time by the schema builder.
func TestDuplicateSchemaAttributeRejected(t *testing.T) {
	src := strings.Replace(edgeHeader, "B = float", "A = float", 1) +
		`Dataset "x" { DATATYPE { S } DATASPACE { A } DATA { DIR[0]/f } }`
	_, err := metadata.Parse(src)
	if err == nil {
		t.Fatal("duplicate schema attribute accepted")
	}
	if !strings.Contains(err.Error(), "duplicate attribute") {
		t.Errorf("error does not mention the duplicate attribute: %v", err)
	}
}

// A DATATYPE extra that re-declares a schema attribute with another
// kind would change the attribute's width mid-tree; Parse rejects it
// at the dataset.
func TestDatatypeExtraShadowingSchemaAttr(t *testing.T) {
	src := edgeHeader + `Dataset "x" { DATATYPE { S A = short int } DATASPACE { A B } DATA { DIR[0]/f } }`
	wantRejected(t, src, "type-conflict", metadata.Pos{Line: 8, Col: 1})
}

// An empty DATASET block is a leaf with no clauses at all; Validate
// rejects it (no DATATYPE when nothing is inherited, no DATA clauses
// when one is), naming the offending dataset.
func TestEmptyDatasetBlockRejected(t *testing.T) {
	cases := map[string]string{
		"bare":      edgeHeader + `Dataset "x" { }`,
		"inherited": edgeHeader + `Dataset "x" { DATATYPE { S } Dataset "y" { } }`,
	}
	for name, src := range cases {
		_, err := metadata.Parse(src)
		if err == nil {
			t.Errorf("%s: empty DATASET block accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), `"x"`) && !strings.Contains(err.Error(), `"y"`) {
			t.Errorf("%s: error does not name the dataset: %v", name, err)
		}
		if ds := desclint.Check(name+".dvd", src); !metadata.HasErrors(ds) {
			t.Errorf("%s: descriptor linter reported no error: %v", name, ds)
		}
	}
}

// Validate accepts a loop variable that matches an integral schema
// attribute (the ipars TIME pattern) but rejects a non-integral match.
func TestLoopVariableAttributeKinds(t *testing.T) {
	good := edgeHeader + `Dataset "x" { DATATYPE { S } DATASPACE { LOOP A 0:9:1 { B } } DATA { DIR[0]/f } }`
	if _, err := metadata.Parse(good); err != nil {
		t.Errorf("integral loop attribute rejected: %v", err)
	}
	bad := edgeHeader + `Dataset "x" { DATATYPE { S } DATASPACE { LOOP B 0:9:1 { A } } DATA { DIR[0]/f } }`
	if _, err := metadata.Parse(bad); err == nil {
		t.Error("non-integral loop attribute accepted")
	}
}
