package extractor

import (
	"os"
	"path/filepath"
	"testing"

	"datavirt/internal/afc"
	"datavirt/internal/schema"
	"datavirt/internal/table"
)

// allKindsAFC builds a one-segment AFC over a hand-written file holding
// rows of every kind, in the requested byte order.
func allKindsAFC(t *testing.T, dir string, big bool, rows int64) (afc.AFC, []schema.Attribute) {
	t.Helper()
	attrs := []schema.Attribute{
		{Name: "C", Kind: schema.Char},
		{Name: "S", Kind: schema.Short},
		{Name: "I", Kind: schema.Int},
		{Name: "L", Kind: schema.Long},
		{Name: "F", Kind: schema.Float},
		{Name: "D", Kind: schema.Double},
	}
	var buf []byte
	rowBytes := int64(0)
	for _, a := range attrs {
		rowBytes += int64(a.Kind.Size())
	}
	for r := int64(0); r < rows; r++ {
		for k, a := range attrs {
			v := schema.KindValue(a.Kind, float64(r*10+int64(k)))
			buf = schema.EncodeValueOrder(buf, v, big)
		}
	}
	name := "le.bin"
	if big {
		name = "be.bin"
	}
	if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	a := afc.AFC{NumRows: rows, Node: "n"}
	seg := afc.Segment{
		Node: "n", File: name, Offset: 0,
		RowStride: rowBytes, RowBytes: rowBytes, BigEndian: big,
	}
	off := int64(0)
	for _, at := range attrs {
		seg.Attrs = append(seg.Attrs, afc.SegAttr{Name: at.Name, Kind: at.Kind, Off: off})
		off += int64(at.Kind.Size())
	}
	a.Segments = []afc.Segment{seg}
	return a, attrs
}

// TestFillColumnAllKindsBothOrders decodes every primitive kind in both
// byte orders through the block extractor.
func TestFillColumnAllKindsBothOrders(t *testing.T) {
	for _, big := range []bool{false, true} {
		dir := t.TempDir()
		a, attrs := allKindsAFC(t, dir, big, 7)
		var got []table.Row
		_, err := runRows([]afc.AFC{a}, DirResolver(dir), Options{Cols: attrs}, false,
			func(r table.Row) error {
				got = append(got, append(table.Row(nil), r...))
				return nil
			})
		if err != nil {
			t.Fatalf("big=%v: %v", big, err)
		}
		if len(got) != 7 {
			t.Fatalf("big=%v: rows = %d", big, len(got))
		}
		for r, row := range got {
			for k := range attrs {
				want := float64(r*10 + k)
				if row[k].AsFloat() != want {
					t.Fatalf("big=%v row %d col %s = %v, want %g", big, r, attrs[k].Name, row[k], want)
				}
			}
		}
	}
}

// TestDefaultWorkers exercises the automatic pool sizing path.
func TestDefaultWorkers(t *testing.T) {
	if n := defaultWorkers(); n < 1 || n > 8 {
		t.Errorf("defaultWorkers = %d", n)
	}
	dir := t.TempDir()
	var afcs []afc.AFC
	var attrs []schema.Attribute
	for i := 0; i < 4; i++ {
		a, at := allKindsAFC(t, dir, false, 3)
		afcs = append(afcs, a)
		attrs = at
	}
	var n int64
	// Workers: 0 → defaultWorkers (may collapse to sequential on 1 CPU).
	_, err := runRows(afcs, DirResolver(dir), Options{Cols: attrs, Workers: 0}, true,
		func(table.Row) error { n++; return nil })
	if err != nil || n != 12 {
		t.Errorf("parallel run with default workers: %d rows, %v", n, err)
	}
}

// TestRowDimFloatKind covers the non-integral row-axis synthesis branch.
func TestRowDimFloatKind(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f"), make([]byte, 40), 0o644); err != nil {
		t.Fatal(err)
	}
	a := afc.AFC{
		NumRows: 5,
		Node:    "n",
		Segments: []afc.Segment{{
			Node: "n", File: "f", RowStride: 8, RowBytes: 8,
			Attrs: []afc.SegAttr{{Name: "P", Kind: schema.Double, Off: 0}},
		}},
		RowDims: []afc.RowDim{{Name: "T", Kind: schema.Float, Lo: 10, Step: 2}},
	}
	cols := []schema.Attribute{{Name: "T", Kind: schema.Float}, {Name: "P", Kind: schema.Double}}
	var ts []float64
	_, err := runRows([]afc.AFC{a}, DirResolver(dir), Options{Cols: cols}, false,
		func(r table.Row) error {
			ts = append(ts, r[0].AsFloat())
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 12, 14, 16, 18}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("row dims = %v", ts)
		}
	}
}
