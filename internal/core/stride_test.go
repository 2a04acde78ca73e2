package core

import (
	"testing"

	"datavirt/internal/gen"
	"datavirt/internal/metadata"
)

// TestStridedLoopsEndToEnd exercises LOOP steps greater than one: the
// dataset stores every third time step, so query ranges must clip to
// the lattice and implicit TIME values must land on it.
func TestStridedLoopsEndToEnd(t *testing.T) {
	src := `
[S]
T = int
G = int
A = float

[StrideData]
DatasetDescription = S
DIR[0] = node0/d

Dataset "StrideData" {
  DATATYPE { S }
  DATAINDEX { T }
  DATASPACE {
    LOOP T 0:18:3 {
      LOOP G 0:4:1 { A }
    }
  }
  DATA { DIR[0]/f }
}
`
	d, err := metadata.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	value := func(attr string, at map[string]int64) float64 {
		return float64(at["T"]*100 + at["G"])
	}
	if err := gen.Materialize(d, root, value); err != nil {
		t.Fatal(err)
	}
	svc, err := Compile(d, NodeResolver(root))
	if err != nil {
		t.Fatal(err)
	}

	// Full scan: 7 lattice steps × 5 grid points.
	rows, err := queryAll(svc, "SELECT * FROM StrideData")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 35 {
		t.Fatalf("full scan rows = %d, want 35", len(rows))
	}
	seenT := map[int64]bool{}
	for _, r := range rows {
		tv := r[0].AsInt()
		if tv%3 != 0 || tv < 0 || tv > 18 {
			t.Fatalf("off-lattice TIME %d", tv)
		}
		seenT[tv] = true
		if want := float64(tv*100 + r[1].AsInt()); r[2].AsFloat() != want {
			t.Fatalf("A = %v, want %g", r[2], want)
		}
	}
	if len(seenT) != 7 {
		t.Errorf("distinct T = %d, want 7", len(seenT))
	}

	// Range clipping rounds inward to the lattice: T in [4, 13] → {6, 9, 12}.
	rows, err = queryAll(svc, "SELECT T FROM StrideData WHERE T >= 4 AND T <= 13")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*5 {
		t.Fatalf("clipped rows = %d, want 15", len(rows))
	}

	// A point query off the lattice selects nothing.
	rows, err = queryAll(svc, "SELECT T FROM StrideData WHERE T = 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("off-lattice point query returned %d rows", len(rows))
	}
	// On the lattice it selects one chunk.
	rows, err = queryAll(svc, "SELECT T FROM StrideData WHERE T = 9")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Errorf("lattice point query returned %d rows", len(rows))
	}
}
