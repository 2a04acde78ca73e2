// Package table defines the virtual-table row representation shared by
// the extractor, the STORM services, and the cluster wire protocol, plus
// a schema-directed fixed-width binary codec for rows.
package table

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"datavirt/internal/schema"
)

// Row is one row of a virtual table: values in schema order.
type Row = []schema.Value

// Codec encodes and decodes rows of a fixed schema. Rows travel as the
// concatenation of their values' little-endian encodings; both sides of
// a connection know the schema, so no per-row framing is needed.
type Codec struct {
	kinds    []schema.Kind
	rowBytes int
}

// NewCodec builds a codec for the given schema.
func NewCodec(s *schema.Schema) *Codec {
	kinds := make([]schema.Kind, s.NumAttrs())
	total := 0
	for i := 0; i < s.NumAttrs(); i++ {
		kinds[i] = s.Attr(i).Kind
		total += kinds[i].Size()
	}
	return &Codec{kinds: kinds, rowBytes: total}
}

// RowBytes returns the encoded size of one row.
func (c *Codec) RowBytes() int { return c.rowBytes }

// NumCols returns the number of columns.
func (c *Codec) NumCols() int { return len(c.kinds) }

// Append encodes row onto dst and returns the extended slice. The row
// must match the codec's schema arity; kinds are coerced to the schema.
func (c *Codec) Append(dst []byte, row Row) ([]byte, error) {
	if len(row) != len(c.kinds) {
		return dst, fmt.Errorf("table: row has %d values, schema has %d columns", len(row), len(c.kinds))
	}
	for i, v := range row {
		if v.Kind != c.kinds[i] {
			// Coerce: keep the numeric value, adopt the schema kind.
			v = schema.KindValue(c.kinds[i], v.AsFloat())
		}
		dst = schema.EncodeValue(dst, v)
	}
	return dst, nil
}

// Decode decodes one row from the start of b into dst (reused if it has
// capacity) and returns the row and the remaining bytes.
func (c *Codec) Decode(dst Row, b []byte) (Row, []byte, error) {
	if len(b) < c.rowBytes {
		return nil, b, fmt.Errorf("table: short row: have %d bytes, need %d", len(b), c.rowBytes)
	}
	if cap(dst) < len(c.kinds) {
		dst = make(Row, len(c.kinds))
	}
	dst = dst[:len(c.kinds)]
	off := 0
	for i, k := range c.kinds {
		dst[i] = schema.DecodeValue(k, b[off:])
		off += k.Size()
	}
	return dst, b[c.rowBytes:], nil
}

// DecodeInto decodes len(rows) rows from b into rows, overwriting them
// in place: b must hold exactly that many encoded rows, and each row
// must have room for NumCols values (a table.Matrix does). It decodes a
// column at a time with FillColumn, since an encoded batch is a
// fixed-stride record layout like any described file, and allocates
// nothing.
func (c *Codec) DecodeInto(rows []Row, b []byte) error {
	if len(b) != len(rows)*c.rowBytes {
		return fmt.Errorf("table: %d bytes do not hold %d rows of %d bytes", len(b), len(rows), c.rowBytes)
	}
	off := int64(0)
	for ci, k := range c.kinds {
		FillColumn(rows, ci, k, b, off, int64(c.rowBytes))
		off += int64(k.Size())
	}
	return nil
}

// FillColumn decodes one little-endian attribute of kind into column ci
// of every row with a kind-specialized tight loop: row r's value starts
// at buf[off+r*stride]. It is the decode of the extractor's row path
// and of DecodeInto.
func FillColumn(rows []Row, ci int, kind schema.Kind, buf []byte, off, stride int64) {
	p := off
	switch kind {
	case schema.Char:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(int8(buf[p]))}
			p += stride
		}
	case schema.Short:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(int16(binary.LittleEndian.Uint16(buf[p : p+2])))}
			p += stride
		}
	case schema.Int:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(int32(binary.LittleEndian.Uint32(buf[p : p+4])))}
			p += stride
		}
	case schema.Long:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(binary.LittleEndian.Uint64(buf[p : p+8]))}
			p += stride
		}
	case schema.Float:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Float: float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[p : p+4])))}
			p += stride
		}
	case schema.Double:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Float: math.Float64frombits(binary.LittleEndian.Uint64(buf[p : p+8]))}
			p += stride
		}
	}
}

// Matrix returns n rows of cols values each, laid back to back in one
// backing array — the block layout producers fill and hand on, and the
// one CopyRows copies fastest.
func Matrix(n, cols int) []Row {
	flat := make([]schema.Value, n*cols)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = flat[i*cols : (i+1)*cols]
	}
	return rows
}

// CopyRows appends copies of rows to dst and returns the extended
// slice. It is the module's one retention copy: every batch is borrowed
// (see extractor.EmitFunc), so a receiver that wants to keep rows calls
// it once per batch. The copies share one freshly allocated backing
// slab sized by the rows it holds, which is never reused — so a
// retained row pins at most the batch it arrived in.
func CopyRows(dst []Row, rows []Row) []Row {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	var slab []schema.Value
	if src := contiguous(rows, total); src != nil {
		// Appending to nil copies into a new array without zeroing it
		// first; for a full block of a Matrix that is a fifth of a
		// cursor scan's time.
		slab = append(slab, src...)
	} else {
		slab = make([]schema.Value, 0, total)
		for _, r := range rows {
			slab = append(slab, r...)
		}
	}
	dst = slices.Grow(dst, len(rows))
	for _, r := range rows {
		dst = append(dst, slab[:len(r):len(r)])
		slab = slab[len(r):]
	}
	return dst
}

// contiguous returns rows' values as one slice if the rows lie back to
// back, in order, in one backing array (a prefix of a Matrix does), and
// nil otherwise.
func contiguous(rows []Row, total int) []schema.Value {
	if total == 0 || cap(rows[0]) < total {
		return nil
	}
	all := rows[0][:total]
	off := 0
	for _, r := range rows {
		if len(r) > 0 && &r[0] != &all[off] {
			return nil
		}
		off += len(r)
	}
	return all
}

// FormatRow renders a row for display: values separated by tabs.
func FormatRow(row Row) string {
	out := ""
	for i, v := range row {
		if i > 0 {
			out += "\t"
		}
		out += v.String()
	}
	return out
}

// RowsEqual compares two rows value-wise (numeric comparison).
func RowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}
