package extractor

import (
	"encoding/binary"
	"math"

	"datavirt/internal/afc"
	"datavirt/internal/query"
	"datavirt/internal/schema"
	"datavirt/internal/table"
)

// fillBatch decodes one block into the reusable column-vector batch:
// every working column's F vector gets the AsFloat value (the predicate
// comparison currency, bit-identical to the scalar path), and integral
// columns additionally get their raw values in I (exact integers for
// group keys and aggregate kernels — float64 would corrupt Longs beyond
// 2^53).
func (bb *blockBuf) fillBatch(a *afc.AFC, sources []colSource, spans [][]byte, base int64, n int) {
	bb.batch.Reset(len(sources), n)
	for ci := range sources {
		src := &sources[ci]
		c := &bb.batch.Cols[ci]
		switch {
		case src.seg >= 0:
			seg := &a.Segments[src.seg]
			c.Kind = src.kind
			var ints []int64
			if src.kind.Integral() {
				ints = bb.batch.IntCol(ci)
			}
			if seg.BigEndian {
				fillVecBE(c.F[:n], ints, src.kind, spans[src.seg], src.attrOff, seg.RowStride)
			} else {
				fillVec(c.F[:n], ints, src.kind, spans[src.seg], src.attrOff, seg.RowStride)
			}
		case src.rowDim != nil:
			rd := src.rowDim
			c.Kind = rd.Kind
			f := c.F[:n]
			if rd.Kind.Integral() {
				ints := bb.batch.IntCol(ci)
				for r := 0; r < n; r++ {
					v := rd.ValueAt(base + int64(r))
					ints[r] = v
					f[r] = float64(v)
				}
			} else {
				for r := 0; r < n; r++ {
					f[r] = float64(rd.ValueAt(base + int64(r)))
				}
			}
		default:
			v := src.implicit
			c.Kind = v.Kind
			f := c.F[:n]
			af := v.AsFloat()
			for r := 0; r < n; r++ {
				f[r] = af
			}
			if v.Kind.Integral() {
				ints := bb.batch.IntCol(ci)
				for r := 0; r < n; r++ {
					ints[r] = v.Int
				}
			}
		}
	}
}

// gatherRows materializes the selected batch rows into the reusable row
// matrix (working-layout rows, compacted to len(sel)).
func gatherRows(rows []table.Row, b *query.Batch, sel []int32, cols []schema.Attribute) {
	for ci := range cols {
		kind := cols[ci].Kind
		c := &b.Cols[ci]
		if kind.Integral() {
			ints := c.I
			for j, r := range sel {
				rows[j][ci] = schema.Value{Kind: kind, Int: ints[r]}
			}
		} else {
			f := c.F
			for j, r := range sel {
				rows[j][ci] = schema.Value{Kind: kind, Float: f[r]}
			}
		}
	}
}

// fillVec decodes one little-endian attribute column into float (and,
// for integral kinds, integer) vectors with a kind-specialized tight
// loop — the columnar counterpart of table.FillColumn.
func fillVec(f []float64, ints []int64, kind schema.Kind, buf []byte, off, stride int64) {
	p := off
	switch kind {
	case schema.Char:
		for r := range f {
			v := int64(int8(buf[p]))
			ints[r], f[r] = v, float64(v)
			p += stride
		}
	case schema.Short:
		for r := range f {
			v := int64(int16(binary.LittleEndian.Uint16(buf[p : p+2])))
			ints[r], f[r] = v, float64(v)
			p += stride
		}
	case schema.Int:
		for r := range f {
			v := int64(int32(binary.LittleEndian.Uint32(buf[p : p+4])))
			ints[r], f[r] = v, float64(v)
			p += stride
		}
	case schema.Long:
		for r := range f {
			v := int64(binary.LittleEndian.Uint64(buf[p : p+8]))
			ints[r], f[r] = v, float64(v)
			p += stride
		}
	case schema.Float:
		for r := range f {
			f[r] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[p : p+4])))
			p += stride
		}
	case schema.Double:
		for r := range f {
			f[r] = math.Float64frombits(binary.LittleEndian.Uint64(buf[p : p+8]))
			p += stride
		}
	}
}

// fillVecBE is fillVec for big-endian segments (BYTEORDER { BIG }).
func fillVecBE(f []float64, ints []int64, kind schema.Kind, buf []byte, off, stride int64) {
	p := off
	switch kind {
	case schema.Char:
		for r := range f {
			v := int64(int8(buf[p]))
			ints[r], f[r] = v, float64(v)
			p += stride
		}
	case schema.Short:
		for r := range f {
			v := int64(int16(binary.BigEndian.Uint16(buf[p : p+2])))
			ints[r], f[r] = v, float64(v)
			p += stride
		}
	case schema.Int:
		for r := range f {
			v := int64(int32(binary.BigEndian.Uint32(buf[p : p+4])))
			ints[r], f[r] = v, float64(v)
			p += stride
		}
	case schema.Long:
		for r := range f {
			v := int64(binary.BigEndian.Uint64(buf[p : p+8]))
			ints[r], f[r] = v, float64(v)
			p += stride
		}
	case schema.Float:
		for r := range f {
			f[r] = float64(math.Float32frombits(binary.BigEndian.Uint32(buf[p : p+4])))
			p += stride
		}
	case schema.Double:
		for r := range f {
			f[r] = math.Float64frombits(binary.BigEndian.Uint64(buf[p : p+8]))
			p += stride
		}
	}
}
