package extractor

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
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
		_, err := runRows([]afc.AFC{a}, DirResolver(dir), Options{Cols: attrs},
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

// TestDefaultWorkers exercises the fold pool's sizing and a run of the
// automatically sized pool.
func TestDefaultWorkers(t *testing.T) {
	if n := runWorkers(Options{}, 100); n < 1 || n > 8 {
		t.Errorf("default pool = %d", n)
	}
	for _, c := range []struct{ workers, afcs, want int }{
		{3, 100, 3}, {16, 5, 5}, {4, 0, 1}, {0, 0, 1}, {0, 1, 1},
	} {
		if got := runWorkers(Options{Workers: c.workers}, c.afcs); got != c.want {
			t.Errorf("runWorkers(Workers=%d, %d AFCs) = %d, want %d", c.workers, c.afcs, got, c.want)
		}
	}
	dir := t.TempDir()
	var afcs []afc.AFC
	var sch *schema.Schema
	for i := 0; i < 4; i++ {
		a, attrs := allKindsAFC(t, dir, false, 3)
		afcs = append(afcs, a)
		sch = schema.MustNew("T", attrs)
	}
	plan, opt, _ := prepareAgg(t, sch, "SELECT COUNT(*), SUM(L), MAX(D) FROM T")
	state, _, err := RunAggregateContext(context.Background(), afcs, DirResolver(dir), opt, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Four copies of rows 0..2: L = r*10+3, D = r*10+5.
	got := state.Finalize()
	if len(got) != 1 || got[0][0].Int != 12 || got[0][1].Int != 4*(3+13+23) || got[0][2].Float != 25 {
		t.Errorf("default pool over 4 AFCs = %v", got)
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
	_, err := runRows([]afc.AFC{a}, DirResolver(dir), Options{Cols: cols},
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

// BenchmarkFill times the column decoders over one IPARS L0 block: 512
// rows of 22 Float attributes at an 88-byte stride, in both byte orders,
// through the row-wise (table.FillColumn) and the vector (fillVec) decoder.
// One op decodes the whole block.
func BenchmarkFill(b *testing.B) {
	const rows, cols, stride = 512, 22, 88
	orders := []struct {
		name string
		bo   binary.ByteOrder
	}{{"LE", binary.LittleEndian}, {"BE", binary.BigEndian}}
	for _, o := range orders {
		buf := make([]byte, rows*stride)
		for i := 0; i < rows*cols; i++ {
			o.bo.PutUint32(buf[i*4:], math.Float32bits(float32(i)*0.25))
		}
		column, vec := table.FillColumn, fillVec
		if o.bo == binary.BigEndian {
			column, vec = fillColumnBE, fillVecBE
		}
		b.Run("column/"+o.name, func(b *testing.B) {
			block := make([]table.Row, rows)
			for r := range block {
				block[r] = make(table.Row, cols)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := 0; c < cols; c++ {
					column(block, c, schema.Float, buf, int64(c*4), stride)
				}
			}
		})
		b.Run("vec/"+o.name, func(b *testing.B) {
			f := make([][]float64, cols)
			ints := make([][]int64, cols)
			for c := range f {
				f[c], ints[c] = make([]float64, rows), make([]int64, rows)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := 0; c < cols; c++ {
					vec(f[c], ints[c], schema.Float, buf, int64(c*4), stride)
				}
			}
		})
	}
}

// TestSliceMatchesRows cuts runs with afc.AFC.Slice from one chunk that
// has a big-endian segment of every kind, a constant (stride-0) segment
// and a row dimension, and requires each run to yield exactly its rows
// of the whole chunk, whatever the block size.
func TestSliceMatchesRows(t *testing.T) {
	dir := t.TempDir()
	a, cols := allKindsAFC(t, dir, true, 37)
	if err := os.WriteFile(filepath.Join(dir, "const.bin"), []byte{0, 0, 0, 9, 0, 0, 0, 42}, 0o644); err != nil {
		t.Fatal(err)
	}
	a.Segments = append(a.Segments, afc.Segment{Node: "n", File: "const.bin", Offset: 4, RowBytes: 4, BigEndian: true,
		Attrs: []afc.SegAttr{{Name: "K", Kind: schema.Int}}})
	a.RowDims = []afc.RowDim{{Name: "R", Kind: schema.Long, Lo: 5, Step: 3}}
	cols = append(cols, schema.Attribute{Name: "K", Kind: schema.Int}, schema.Attribute{Name: "R", Kind: schema.Long})
	extract := func(c afc.AFC, blockBytes int) []table.Row {
		t.Helper()
		var rows []table.Row
		_, err := RunBatchesContext(context.Background(), []afc.AFC{c}, DirResolver(dir),
			Options{Cols: cols, BlockBytes: blockBytes}, func(batch []table.Row) error {
				rows = table.CopyRows(rows, batch)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	whole := extract(a, 0)
	if len(whole) != 37 || whole[36][6].Int != 42 || whole[36][7].Int != 5+3*36 {
		t.Fatalf("whole chunk: %d rows, last %v", len(whole), whole[len(whole)-1])
	}
	before := fmt.Sprintf("%#v", a)
	for _, bb := range []int{0, 64} {
		for _, c := range []struct{ base, n int64 }{{0, 37}, {0, 1}, {5, 10}, {12, 25}, {36, 1}} {
			got, want := extract(a.Slice(c.base, c.n), bb), whole[c.base:c.base+c.n]
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("Slice(%d, %d) at %d block bytes:\n got %v\nwant %v", c.base, c.n, bb, got, want)
			}
		}
	}
	if fmt.Sprintf("%#v", a) != before {
		t.Error("Slice changed the chunk it cut")
	}
}
