// Package afc computes Aligned File Chunks — the central data structure
// of the paper (§4):
//
//	{num_rows, {File_1, Offset_1, Num_Bytes_1}, ..., {File_m, Offset_m, Num_Bytes_m}}
//
// An AFC names, for each participating file, a byte region that yields
// exactly num_rows rows of the virtual table when the regions are read
// in lockstep. The package implements the two-step algorithm of the
// paper's Figure 5: Find_File_Groups (match files against the query,
// classify by attribute set, take the cartesian product, and prune
// groups whose implicit attributes are inconsistent) and
// Process_File_Groups (find the aligned chunks of each group, supply
// implicit attributes, check each chunk against the index, and compute
// offsets and lengths).
//
// Two generalizations over the paper's formulation:
//
//   - a Segment carries a RowStride in addition to RowBytes, so layouts
//     that store each variable as a separate array (the paper's layouts
//     II, IV, VI) are expressible: consecutive rows of an attribute may
//     be non-adjacent. When RowStride == RowBytes the structure is
//     exactly the paper's contiguous chunk.
//   - several segments may reference the same file, so a single file
//     holding multiple per-variable arrays contributes one segment per
//     array rather than being unrepresentable.
package afc

import (
	"fmt"
	"strings"

	"datavirt/internal/schema"
)

// SegAttr locates one attribute inside a segment's per-row byte run.
type SegAttr struct {
	Name string
	Kind schema.Kind
	// Off is the attribute's byte offset within the row run.
	Off int64
}

// Segment is one aligned byte region of one file. Row i of the AFC
// occupies bytes [Offset + i*RowStride, Offset + i*RowStride + RowBytes).
// RowStride == 0 means the region is constant across rows (the attribute
// does not vary along the row axis and is replicated).
type Segment struct {
	// Node is the cluster node holding the file; File is the path
	// relative to that node's data root.
	Node string
	File string

	Offset    int64
	RowStride int64
	RowBytes  int64
	Attrs     []SegAttr

	// BigEndian marks data declared with BYTEORDER { BIG }.
	BigEndian bool
}

// Implicit is an attribute whose value is constant over an entire AFC,
// inferred from the file name, directory, or an outer loop variable
// rather than stored in any file (paper §4, "implicit attributes").
type Implicit struct {
	Name  string
	Value schema.Value
}

// RowDim synthesizes a per-row attribute from the row position:
// value(i) = Lo + i*Step.
type RowDim struct {
	Name     string
	Kind     schema.Kind
	Lo, Step int64
}

// ValueAt computes the attribute's value for absolute row index i.
func (rd *RowDim) ValueAt(i int64) int64 {
	return rd.Lo + i*rd.Step
}

// AFC is one aligned file chunk set.
type AFC struct {
	NumRows   int64
	Segments  []Segment
	Implicits []Implicit
	RowDims   []RowDim
	// Node is the cluster node the chunk's files live on (the first
	// group file's node). It remains meaningful even when a projection
	// needs no payload bytes and Segments is empty, so distributed
	// execution can still assign the chunk to exactly one node.
	Node string
}

// Bytes returns the total number of data bytes the AFC reads.
func (a *AFC) Bytes() int64 {
	var n int64
	for _, s := range a.Segments {
		if s.RowStride == 0 {
			n += s.RowBytes
			continue
		}
		n += s.RowBytes * a.NumRows
	}
	return n
}

// Slice returns rows [base, base+n) of the chunk as a chunk of its own:
// each segment starts base strides later (a constant segment stays
// put) and each row dimension base steps later. The segment and
// row-dimension slices are copied, so a itself is unchanged.
func (a *AFC) Slice(base, n int64) AFC {
	out := *a
	out.NumRows = n
	out.Segments = append([]Segment(nil), a.Segments...)
	for i := range out.Segments {
		out.Segments[i].Offset += base * out.Segments[i].RowStride
	}
	out.RowDims = append([]RowDim(nil), a.RowDims...)
	for i := range out.RowDims {
		out.RowDims[i].Lo += base * out.RowDims[i].Step
	}
	return out
}

// String renders a compact diagnostic form.
func (a *AFC) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AFC{rows=%d", a.NumRows)
	for _, s := range a.Segments {
		names := make([]string, len(s.Attrs))
		for i, at := range s.Attrs {
			names[i] = at.Name
		}
		fmt.Fprintf(&b, ", %s:%s@%d+%dx%d(%s)", s.Node, s.File, s.Offset, s.RowStride, s.RowBytes,
			strings.Join(names, ","))
	}
	for _, im := range a.Implicits {
		fmt.Fprintf(&b, ", %s=%s", im.Name, im.Value)
	}
	for _, rd := range a.RowDims {
		fmt.Fprintf(&b, ", %s=row(%d+%d*i)", rd.Name, rd.Lo, rd.Step)
	}
	b.WriteString("}")
	return b.String()
}
