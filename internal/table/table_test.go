package table

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"datavirt/internal/schema"
)

func testSchema() *schema.Schema {
	return schema.MustNew("T", []schema.Attribute{
		{Name: "REL", Kind: schema.Short},
		{Name: "TIME", Kind: schema.Int},
		{Name: "SOIL", Kind: schema.Float},
		{Name: "P", Kind: schema.Double},
	})
}

func TestCodecBasics(t *testing.T) {
	c := NewCodec(testSchema())
	if c.RowBytes() != 2+4+4+8 {
		t.Fatalf("RowBytes = %d", c.RowBytes())
	}
	if c.NumCols() != 4 {
		t.Fatalf("NumCols = %d", c.NumCols())
	}
	row := Row{
		{Kind: schema.Short, Int: 3}, schema.IntValue(1042),
		schema.FloatValue(0.75), schema.DoubleValue(-1.5),
	}
	b, err := c.Append(nil, row)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if len(b) != c.RowBytes() {
		t.Fatalf("encoded %d bytes", len(b))
	}
	got, rest, err := c.Decode(nil, b)
	if err != nil || len(rest) != 0 {
		t.Fatalf("Decode: %v rest=%d", err, len(rest))
	}
	if !RowsEqual(row, got) {
		t.Errorf("round trip: %v -> %v", row, got)
	}
}

func TestCodecErrors(t *testing.T) {
	c := NewCodec(testSchema())
	if _, err := c.Append(nil, Row{schema.IntValue(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, _, err := c.Decode(nil, make([]byte, 3)); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := c.DecodeAll(make([]byte, c.RowBytes()+1)); err == nil {
		t.Error("ragged buffer accepted")
	}
}

func TestCodecCoercion(t *testing.T) {
	c := NewCodec(testSchema())
	// Values with mismatched kinds are coerced to the schema.
	row := Row{
		schema.DoubleValue(3), schema.DoubleValue(1042),
		schema.IntValue(1), schema.IntValue(-2),
	}
	b, err := c.Append(nil, row)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	got, _, _ := c.Decode(nil, b)
	if got[0].Kind != schema.Short || got[0].Int != 3 {
		t.Errorf("coerced[0] = %+v", got[0])
	}
	if got[2].Kind != schema.Float || got[2].Float != 1 {
		t.Errorf("coerced[2] = %+v", got[2])
	}
}

func TestDecodeAll(t *testing.T) {
	c := NewCodec(testSchema())
	var buf []byte
	var want []Row
	for i := 0; i < 10; i++ {
		row := Row{
			{Kind: schema.Short, Int: int64(i)}, schema.IntValue(int64(i * 100)),
			schema.FloatValue(float64(i) / 2), schema.DoubleValue(float64(-i)),
		}
		want = append(want, row)
		var err error
		buf, err = c.Append(buf, row)
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.DecodeAll(buf)
	if err != nil || len(got) != 10 {
		t.Fatalf("DecodeAll: %d rows, %v", len(got), err)
	}
	for i := range want {
		if !RowsEqual(want[i], got[i]) {
			t.Errorf("row %d: %v != %v", i, want[i], got[i])
		}
	}
	// A frame decodes into one backing array plus the headers, however
	// many rows it holds, and appending to a row must not reach the next.
	if allocs := testing.AllocsPerRun(20, func() { c.DecodeAll(buf) }); allocs > 4 { // 2, plus slack for -race
		t.Errorf("DecodeAll of %d rows made %.0f allocations, want 2", len(want), allocs)
	}
	_ = append(got[0], schema.IntValue(99))
	if !RowsEqual(want[1], got[1]) {
		t.Errorf("append to row 0 overwrote row 1: %v", got[1])
	}
}

// TestCopyRows: copies are value-equal, independent of the source and
// of each other, and appended after dst, whether the source rows are a
// Matrix prefix (the fast path), a scattered selection of one, ragged,
// or empty; and a batch costs two allocations, not one per row.
func TestCopyRows(t *testing.T) {
	fill := func(rows []Row) []Row {
		for i, r := range rows {
			for j := range r {
				r[j] = schema.IntValue(int64(i*100 + j))
			}
		}
		return rows
	}
	m := fill(Matrix(8, 3))
	cases := map[string][]Row{
		"matrix":        m,
		"matrix-prefix": m[:5],
		"matrix-suffix": m[3:],
		"scattered":     {m[0], m[2], m[7]},
		"reordered":     {m[1], m[0]},
		"ragged":        {m[0][:2], m[1], nil, m[2][:1]},
		"zero-width":    Matrix(4, 0),
		"empty":         nil,
	}
	for name, src := range cases {
		keep := Row{schema.IntValue(-1)}
		got := CopyRows([]Row{keep}, src)
		if len(got) != 1+len(src) || &got[0][0] != &keep[0] {
			t.Fatalf("%s: dst not extended in place: %d rows", name, len(got))
		}
		got = got[1:]
		want := make([]string, len(src))
		for i := range src {
			want[i] = FormatRow(src[i])
			if !RowsEqual(got[i], src[i]) {
				t.Errorf("%s: row %d = %v, want %v", name, i, got[i], src[i])
			}
			if len(src[i]) > 0 && &got[i][0] == &src[i][0] {
				t.Errorf("%s: row %d aliases its source", name, i)
			}
		}
		// Overwriting the source, or appending to a copy, leaves the
		// copies as they were.
		for _, r := range src {
			for j := range r {
				r[j] = schema.IntValue(-7)
			}
		}
		for i := range got {
			_ = append(got[i], schema.IntValue(99))
		}
		for i := range got {
			if FormatRow(got[i]) != want[i] {
				t.Errorf("%s: copy %d changed to %v, want %s", name, i, got[i], want[i])
			}
		}
		fill(m)
	}
	big := Matrix(64, 3)
	for name, src := range map[string][]Row{"matrix": big, "scattered": append(big[:1:1], big[2:]...)} {
		if allocs := testing.AllocsPerRun(20, func() { CopyRows(nil, src) }); allocs > 4 { // 2, plus slack for -race
			t.Errorf("%s: %.0f allocations for %d rows", name, allocs, len(src))
		}
	}
}

// BenchmarkCodecDecodeAll decodes one full 'R' frame (512 rows of 22
// columns, the benchmark's row shape).
func BenchmarkCodecDecodeAll(b *testing.B) {
	attrs := make([]schema.Attribute, 22)
	for i := range attrs {
		attrs[i] = schema.Attribute{Name: fmt.Sprintf("A%d", i), Kind: schema.Float}
	}
	c := NewCodec(schema.MustNew("T", attrs))
	const frameRows = 512
	var buf []byte
	for _, row := range Matrix(frameRows, len(attrs)) {
		for j := range row {
			row[j] = schema.FloatValue(float64(j))
		}
		var err error
		if buf, err = c.Append(buf, row); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := c.DecodeAll(buf)
		if err != nil || len(rows) != frameRows {
			b.Fatal(len(rows), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/frameRows, "ns/row")
}

func TestFormatRow(t *testing.T) {
	row := Row{schema.IntValue(7), schema.DoubleValue(0.5)}
	if got := FormatRow(row); got != "7\t0.5" {
		t.Errorf("FormatRow = %q", got)
	}
}

func TestRowsEqual(t *testing.T) {
	a := Row{schema.IntValue(1), schema.FloatValue(2)}
	b := Row{schema.DoubleValue(1), schema.IntValue(2)} // same numeric values
	if !RowsEqual(a, b) {
		t.Error("numerically equal rows reported unequal")
	}
	if RowsEqual(a, Row{schema.IntValue(1)}) {
		t.Error("different arity reported equal")
	}
	if RowsEqual(a, Row{schema.IntValue(1), schema.FloatValue(3)}) {
		t.Error("different values reported equal")
	}
}

// Property: encode-then-decode is identity for random rows.
func TestCodecRoundTripQuick(t *testing.T) {
	c := NewCodec(testSchema())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		buf := []byte{}
		var rows []Row
		n := rng.Intn(20) + 1
		for i := 0; i < n; i++ {
			row := Row{
				{Kind: schema.Short, Int: int64(int16(rng.Int()))},
				schema.IntValue(int64(int32(rng.Int()))),
				schema.FloatValue(float64(float32(rng.NormFloat64()))),
				schema.DoubleValue(rng.NormFloat64()),
			}
			rows = append(rows, row)
			var err error
			buf, err = c.Append(buf, row)
			if err != nil {
				return false
			}
		}
		got, err := c.DecodeAll(buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range rows {
			if !RowsEqual(rows[i], got[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
