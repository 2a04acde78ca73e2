// Package lint is the command-line face of the descriptor checker: the
// "check" stage of the paper's compiler pipeline (parse → check →
// generate index/extractor functions). The checks themselves are
// metadata.Check, the same pass Parse runs through Validate; this
// package adds what needs the outside world: reading the descriptor
// file, turning a parse failure into a positioned syntax diagnostic,
// JSON output, and the opt-in sidecar pass over the data directory.
// No check reads a data file except that pass.
//
// Codes, error (E) or warning (W); every error also makes Parse reject
// the descriptor:
//
//	syntax            (E) the descriptor does not parse
//	component-missing (E) no schema section, storage description or layout
//	schema-unknown    (E) storage or DATATYPE names an undeclared schema,
//	                      or the root dataset has no DATATYPE
//	dataset-name      (E) a dataset name is empty or used twice
//	leaf-shape        (E) children beside leaf clauses; a leaf without
//	                      DATA, with both or neither DATASPACE/CHUNKED,
//	                      INDEXFILE without CHUNKED, CHUNKED without
//	                      INDEXFILE/DATAINDEX; an empty DATASPACE or LOOP
//	                      body; DATASPACE and CHUNKED leaves mixed
//	var-unbound       (E) a binding, file template or LOOP bound uses a
//	                      variable no (earlier) binding binds, or a
//	                      clause binds a variable twice
//	loop-var          (E) a LOOP variable shadows an enclosing loop or
//	                      names a non-integral attribute
//	attr-unknown      (E) DATASPACE/CHUNKED/DATAINDEX names an undeclared
//	                      attribute, or a chunked DATAINDEX is not in the
//	                      record
//	span-overlap      (E) an attribute is laid out twice in one leaf
//	loop-extent       (E) for some file a LOOP's bounds fail, give an
//	                      empty range or non-positive step, or differ from
//	                      another LOOP over the same variable; or a LOOP
//	                      variable is also a file-clause binding
//	type-conflict     (E) a DATATYPE extra redeclares an attribute with a
//	                      different kind
//	file-clause       (E) a binding range is empty, has non-positive step
//	                      or fails to evaluate
//	file-budget       (E) the file clauses expand to more than 65,536 files
//	dir-range         (E) a file clause selects a DIR[i] storage lacks
//	file-overlap      (E) two DATA (or INDEXFILE) clauses produce one file
//	index-pair        (E) a chunked data file matches no index file, or
//	                      several
//	replica-dup       (E) a DIR replica set lists a node twice
//	dim-mismatch      (W) a variable iterates different extents in
//	                      different leaves
//	attr-unbound      (W) a schema attribute no leaf lays out
//	attr-unused       (W) a DATATYPE extra nothing references
//	dir-unused        (W) a storage directory no clause selects
//	replica-unknown   (W) a replica set names a node that is no
//	                      directory's primary
//
// One additional pass, CheckSidecars, is opt-in (dvdesc check -data)
// because it inspects the data directory:
//
//	sidecar-missing (W) an indexed payload attribute has data files
//	                    without a usable sparse block-index sidecar
package lint

import (
	"encoding/json"
	"os"
	"regexp"
	"strconv"

	"datavirt/internal/metadata"
)

// WriteJSON writes the diagnostics as a JSON array (machine-readable
// form for -json).
func WriteJSON(w *os.File, ds []metadata.Diagnostic) error {
	if ds == nil {
		ds = []metadata.Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ds)
}

// CheckFile reads and checks one descriptor file. The error is only for
// I/O problems; descriptor problems come back as diagnostics.
func CheckFile(path string) ([]metadata.Diagnostic, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Check(path, string(src)), nil
}

var lineRE = regexp.MustCompile(`line (\d+)`)

// Check analyzes one descriptor source and returns its diagnostics,
// sorted by position. It never fails: unparseable input yields a single
// "syntax" diagnostic, and anything else metadata.Check reports.
func Check(file, src string) []metadata.Diagnostic {
	d, err := metadata.ParseUnvalidated(src)
	if err != nil {
		diag := metadata.Diagnostic{File: file, Severity: metadata.SevError, Code: "syntax", Message: err.Error()}
		// The parser reports "metadata: line N: ..." — recover N.
		if m := lineRE.FindStringSubmatch(err.Error()); m != nil {
			diag.Line, _ = strconv.Atoi(m[1])
			diag.Col = 1
		}
		return []metadata.Diagnostic{diag}
	}
	ds := metadata.Check(d)
	for i := range ds {
		ds[i].File = file
	}
	return ds
}
