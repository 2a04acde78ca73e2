// Package table defines the virtual-table row representation shared by
// the extractor, the STORM services, and the cluster wire protocol, plus
// a schema-directed fixed-width binary codec for rows.
package table

import (
	"fmt"
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

// DecodeAll decodes every row in b; len(b) must be a multiple of
// RowBytes. The rows share one freshly allocated backing array (two
// allocations per call, whatever the row count), so the caller owns
// the result and may retain or hand it on without copying.
func (c *Codec) DecodeAll(b []byte) ([]Row, error) {
	if len(b)%c.rowBytes != 0 {
		return nil, fmt.Errorf("table: buffer of %d bytes is not a whole number of %d-byte rows", len(b), c.rowBytes)
	}
	n, cols := len(b)/c.rowBytes, len(c.kinds)
	flat := make([]schema.Value, n*cols)
	out := make([]Row, n)
	for i := range out {
		var err error
		out[i], b, err = c.Decode(flat[i*cols:i*cols:(i+1)*cols], b)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
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
// slice. It is the module's one retention copy: a receiver handed
// borrowed rows (see extractor.EmitFunc) that wants to keep them calls
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
