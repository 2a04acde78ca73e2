package lint

import (
	"os"
	"path/filepath"
	"testing"

	"datavirt/internal/afc"
	"datavirt/internal/metadata"
)

// FuzzCheck fuzzes the descriptor front end with the compiler as the
// oracle. Check must never panic and must report a syntax diagnostic
// exactly when parsing fails; for parseable input it must report an
// error exactly when Parse or afc.Compile fails, so that whatever
// checks clean also compiles. The seed corpus mixes the shipped
// descriptors with one seed per diagnostic class and the descriptors
// earlier fuzzing found to check clean but fail to compile.
func FuzzCheck(f *testing.F) {
	shipped, _ := filepath.Glob("../../codegen/testdata/*.dvd")
	for _, p := range shipped {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, seed := range []string{
		// syntax
		"Dataset \"x\" {",
		// span-overlap
		header + "Dataset \"d\" {\n DATATYPE { S }\n DATASPACE { LOOP I 0:5:1 { A A } }\n DATA { DIR[0]/f }\n}\n",
		// loop-extent
		header + "Dataset \"d\" {\n DATATYPE { S }\n DATASPACE { LOOP I 5:1:1 { A } }\n DATA { DIR[0]/f }\n}\n",
		// type-conflict
		header + "Dataset \"d\" {\n DATATYPE { S A = int }\n DATASPACE { LOOP I 0:5:1 { A } }\n DATA { DIR[0]/f }\n}\n",
		// attr-unknown
		header + "Dataset \"d\" {\n DATATYPE { S }\n DATASPACE { NOPE }\n DATA { DIR[0]/f }\n}\n",
		// dir-range
		header + "Dataset \"d\" {\n DATATYPE { S }\n DATASPACE { A }\n DATA { DIR[9]/f }\n}\n",
		// file-overlap
		header + "Dataset \"d\" {\n DATATYPE { S }\n DATASPACE { A }\n DATA { DIR[0]/f DIR[0]/f }\n}\n",
		// file-budget: huge ranges are counted, never enumerated
		header + "Dataset \"d\" {\n DATATYPE { S }\n DATASPACE { A }\n DATA { DIR[0]/f$I.$J I = 0:99999:1 J = 0:99999:1 }\n}\n",
		// valid: one variable looped twice over the same range; changing
		// one bound makes the loop-extent error the compiler also raises
		header + "Dataset \"d\" {\n DATATYPE { S }\n DATASPACE { LOOP I 0:5:1 { A } LOOP I 0:5:1 { B } }\n DATA { DIR[0]/f$K K = 0:1:1 }\n}\n",
		// leaf-shape: DATASPACE and CHUNKED leaves in one descriptor,
		// which only the compiler used to reject
		header + "Dataset \"r\" {\n DATATYPE { S }\n DATAINDEX { I }\n" +
			" Dataset \"a\" { DATASPACE { LOOP J 0:1:1 { A } } DATA { DIR[0]/a } }\n" +
			" Dataset \"b\" { CHUNKED { I B } DATA { DIR[1]/b } INDEXFILE { DIR[1]/b.idx } }\n}\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ds := Check("fuzz.dvd", src) // must not panic
		_, perr := metadata.ParseUnvalidated(src)
		hasSyntax := false
		for _, d := range ds {
			if d.Code == "syntax" {
				hasSyntax = true
			}
		}
		if (perr != nil) != hasSyntax {
			t.Fatalf("parse err = %v but syntax diagnostic = %v (%v)", perr, hasSyntax, ds)
		}
		if perr != nil {
			return
		}
		d, err := metadata.Parse(src)
		if err == nil {
			_, err = afc.Compile(d)
		}
		if (err != nil) != metadata.HasErrors(ds) {
			t.Fatalf("Parse/Compile err = %v but checker errors = %v: %v", err, metadata.HasErrors(ds), ds)
		}
	})
}
