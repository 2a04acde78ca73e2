package afc

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"datavirt/internal/index"
	"datavirt/internal/metadata"
	"datavirt/internal/query"
	"datavirt/internal/sqlparser"
)

const iparsSrc = `
[IPARS]
REL = short int
TIME = int
X = float
Y = float
Z = float
SOIL = float
SGAS = float

[IparsData]
DatasetDescription = IPARS
DIR[0] = osu0/ipars
DIR[1] = osu1/ipars
DIR[2] = osu2/ipars
DIR[3] = osu3/ipars

Dataset "IparsData" {
  DATATYPE { IPARS }
  DATAINDEX { REL TIME }
  DATA { Dataset ipars1 Dataset ipars2 }
  Dataset "ipars1" {
    DATASPACE {
      LOOP GRID ($DIRID*100+1):(($DIRID+1)*100):1 { X Y Z }
    }
    DATA { DIR[$DIRID]/COORDS DIRID = 0:3:1 }
  }
  Dataset "ipars2" {
    DATASPACE {
      LOOP TIME 1:500:1 {
        LOOP GRID ($DIRID*100+1):(($DIRID+1)*100):1 { SOIL SGAS }
      }
    }
    DATA { DIR[$DIRID]/DATA$REL REL = 0:3:1 DIRID = 0:3:1 }
  }
}
`

func compileIpars(t *testing.T) *Plan {
	t.Helper()
	d, err := metadata.Parse(iparsSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Compile(d)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

func allAttrs() []string {
	return []string{"REL", "TIME", "X", "Y", "Z", "SOIL", "SGAS"}
}

// TestPaperWorkedExample asserts the exact counts of the paper's §4
// walk-through: query REL ∈ {0,1}, TIME 1..100 on the Figure 4 layout.
// "Eight such groups are put in the set T" and "a total of 500 such
// aligned file chunk sets can be formed from each set in T. By using the
// query range, we can see that only 100 of these should be processed."
func TestPaperWorkedExample(t *testing.T) {
	p := compileIpars(t)
	q := sqlparser.MustParse("SELECT * FROM IparsData WHERE REL IN (0,1) AND TIME >= 1 AND TIME <= 100")
	ranges := query.ExtractRanges(q.Where)

	afcs, err := p.Generate(ranges, allAttrs(), nil)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// 8 groups × 100 TIME chunks.
	if len(afcs) != 800 {
		t.Fatalf("AFC sets = %d, want 800", len(afcs))
	}
	var rows int64
	for _, a := range afcs {
		rows += a.NumRows
	}
	// 2 RELs × 100 TIMEs × 400 grid points.
	if rows != 80000 {
		t.Errorf("total rows = %d, want 80000", rows)
	}
	// Every AFC reads one COORDS chunk and one DATA chunk, aligned on
	// GRID, 100 rows each.
	first := afcs[0]
	if first.NumRows != 100 {
		t.Errorf("NumRows = %d", first.NumRows)
	}
	if len(first.Segments) != 2 {
		t.Fatalf("segments = %d: %s", len(first.Segments), first.String())
	}
	var coords, data *Segment
	for i := range first.Segments {
		s := &first.Segments[i]
		if strings.HasSuffix(s.File, "COORDS") {
			coords = s
		} else {
			data = s
		}
	}
	if coords == nil || data == nil {
		t.Fatalf("segments = %s", first.String())
	}
	// COORDS: 12 bytes per row (X, Y, Z), contiguous.
	if coords.RowBytes != 12 || coords.RowStride != 12 || coords.Offset != 0 {
		t.Errorf("coords segment = %+v", coords)
	}
	if len(coords.Attrs) != 3 || coords.Attrs[0].Name != "X" || coords.Attrs[2].Off != 8 {
		t.Errorf("coords attrs = %+v", coords.Attrs)
	}
	// DATA: 8 bytes per row (SOIL, SGAS), contiguous.
	if data.RowBytes != 8 || data.RowStride != 8 {
		t.Errorf("data segment = %+v", data)
	}
	// Implicits: REL from the file name, TIME from the chunk dimension.
	im := map[string]float64{}
	for _, i := range first.Implicits {
		im[i.Name] = i.Value.AsFloat()
	}
	if _, ok := im["REL"]; !ok {
		t.Errorf("missing REL implicit: %s", first.String())
	}
	if _, ok := im["TIME"]; !ok {
		t.Errorf("missing TIME implicit: %s", first.String())
	}
	// DIRID is not a schema attribute and must not leak into implicits.
	if _, ok := im["DIRID"]; ok {
		t.Error("DIRID leaked into implicits")
	}
	// Distinct (REL, TIME, dir) combinations across all AFCs: 2×100×4.
	seen := map[string]bool{}
	for i := range afcs {
		var rel, tm float64
		for _, im := range afcs[i].Implicits {
			switch im.Name {
			case "REL":
				rel = im.Value.AsFloat()
			case "TIME":
				tm = im.Value.AsFloat()
			}
		}
		if rel > 1 {
			t.Fatalf("REL=%g survived pruning", rel)
		}
		if tm < 1 || tm > 100 {
			t.Fatalf("TIME=%g outside query range", tm)
		}
		key := afcs[i].Segments[0].File + "|" + afcs[i].String()
		if seen[key] {
			t.Fatalf("duplicate AFC %s", key)
		}
		seen[key] = true
	}
}

func TestDataOffsets(t *testing.T) {
	p := compileIpars(t)
	// Pin REL=1, TIME=3, grid partition DIRID=2 (grid 201..300).
	q := sqlparser.MustParse("SELECT * FROM IparsData WHERE REL = 1 AND TIME = 3")
	afcs, err := p.Generate(query.ExtractRanges(q.Where), allAttrs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// One AFC per directory.
	if len(afcs) != 4 {
		t.Fatalf("AFCs = %d", len(afcs))
	}
	for _, a := range afcs {
		var data *Segment
		for i := range a.Segments {
			if strings.Contains(a.Segments[i].File, "DATA") {
				data = &a.Segments[i]
			}
		}
		if data == nil {
			t.Fatal("no data segment")
		}
		if !strings.HasSuffix(data.File, "DATA1") {
			t.Errorf("file = %s, want DATA1", data.File)
		}
		// Offset = (TIME-1)*100*8 = 1600 within each DATA file.
		if data.Offset != 1600 {
			t.Errorf("offset = %d, want 1600", data.Offset)
		}
		if a.NumRows != 100 {
			t.Errorf("rows = %d", a.NumRows)
		}
	}
}

func TestEmptyAndPrunedQueries(t *testing.T) {
	p := compileIpars(t)
	// TIME out of the stored range: everything pruned.
	q := sqlparser.MustParse("SELECT * FROM IparsData WHERE TIME > 9000")
	afcs, err := p.Generate(query.ExtractRanges(q.Where), allAttrs(), nil)
	if err != nil || len(afcs) != 0 {
		t.Errorf("out-of-range query: %d AFCs, %v", len(afcs), err)
	}
	// Contradictory ranges.
	q2 := sqlparser.MustParse("SELECT * FROM IparsData WHERE TIME > 10 AND TIME < 5")
	afcs, err = p.Generate(query.ExtractRanges(q2.Where), allAttrs(), nil)
	if err != nil || len(afcs) != 0 {
		t.Errorf("contradiction: %d AFCs, %v", len(afcs), err)
	}
	// REL without any match.
	q3 := sqlparser.MustParse("SELECT * FROM IparsData WHERE REL = 99")
	afcs, err = p.Generate(query.ExtractRanges(q3.Where), allAttrs(), nil)
	if err != nil || len(afcs) != 0 {
		t.Errorf("no-REL query: %d AFCs, %v", len(afcs), err)
	}
}

func TestFullScanCounts(t *testing.T) {
	p := compileIpars(t)
	afcs, err := p.Generate(query.Ranges{}, allAttrs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4 RELs × 4 dirs groups... groups: COORDS class (4) × DATA class
	// (16) with DIRID agreement → 16 groups × 500 TIME chunks.
	if len(afcs) != 16*500 {
		t.Fatalf("AFCs = %d, want 8000", len(afcs))
	}
	var rows int64
	for _, a := range afcs {
		rows += a.NumRows
	}
	// 4 RELs × 500 TIMEs × 400 grid points.
	if rows != 4*500*400 {
		t.Errorf("rows = %d", rows)
	}
}

func TestProjectionSegments(t *testing.T) {
	p := compileIpars(t)
	// Needing only SOIL must not read COORDS bytes and must split SGAS
	// out of the data segment.
	q := sqlparser.MustParse("SELECT SOIL FROM IparsData WHERE REL = 0 AND TIME = 1")
	afcs, err := p.Generate(query.ExtractRanges(q.Where), []string{"SOIL"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(afcs) != 4 {
		t.Fatalf("AFCs = %d", len(afcs))
	}
	for _, a := range afcs {
		if len(a.Segments) != 1 {
			t.Fatalf("segments = %s", a.String())
		}
		s := a.Segments[0]
		if !strings.HasSuffix(s.File, "DATA0") {
			t.Errorf("file = %s", s.File)
		}
		// SOIL only: 4 bytes per row at stride 8.
		if s.RowBytes != 4 || s.RowStride != 8 {
			t.Errorf("segment = %+v", s)
		}
		// Multiplicity is preserved: still one AFC per (REL, TIME, dir)
		// with 100 grid rows.
		if a.NumRows != 100 {
			t.Errorf("rows = %d", a.NumRows)
		}
	}
}

func TestCoverageErrors(t *testing.T) {
	p := compileIpars(t)
	if err := p.CheckCoverage([]string{"SOIL", "NOPE"}); err == nil {
		t.Error("missing attribute accepted")
	}
	if _, err := p.Generate(query.Ranges{}, []string{"NOPE"}, nil); err == nil {
		t.Error("Generate with missing attribute accepted")
	}
	avail := p.AvailableAttrs()
	want := "REL SGAS SOIL TIME X Y Z"
	if strings.Join(avail, " ") != want {
		t.Errorf("AvailableAttrs = %v", avail)
	}
}

func TestPlanStats(t *testing.T) {
	p := compileIpars(t)
	// 4 COORDS files of 1200 bytes + 16 DATA files of 400000 bytes.
	want := int64(4*1200 + 16*400000)
	if got := p.TotalDataBytes(); got != want {
		t.Errorf("TotalDataBytes = %d, want %d", got, want)
	}
}

const titanSrc = `
[TITAN]
X = int
Y = int
Z = int
S1 = float
S2 = float
S3 = float
S4 = float
S5 = float

[TitanData]
DatasetDescription = TITAN
DIR[0] = osu0/titan

Dataset "TitanData" {
  DATATYPE { TITAN }
  DATAINDEX { X Y Z }
  Dataset "chunks" {
    CHUNKED { X Y Z S1 S2 S3 S4 S5 }
    DATA { DIR[0]/chunks.dat PART = 0:0:1 }
    INDEXFILE { DIR[0]/chunks.idx PART = 0:0:1 }
  }
}
`

func titanLoader(t *testing.T) IndexLoader {
	t.Helper()
	// Two chunks: X,Y,Z boxes [0..9]^3 (50 rows at offset 0) and
	// [10..19]^3 (30 rows after the first chunk's 50×32 bytes).
	ix, err := index.Build([]string{"X", "Y", "Z"}, []index.ChunkMeta{
		{Offset: 0, NumRows: 50, Min: []float64{0, 0, 0}, Max: []float64{9, 9, 9}},
		{Offset: 50 * 32, NumRows: 30, Min: []float64{10, 10, 10}, Max: []float64{19, 19, 19}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return func(fi metadata.FileInstance) (*index.ChunkIndex, error) {
		return ix, nil
	}
}

func TestChunkedGenerate(t *testing.T) {
	d, err := metadata.Parse(titanSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(d)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(p.ChunkedLeaves) != 1 || p.ChunkedLeaves[0].RecordBytes != 3*4+5*4 {
		t.Fatalf("chunked plan = %+v", p.ChunkedLeaves)
	}
	needed := []string{"X", "Y", "Z", "S1", "S2", "S3", "S4", "S5"}

	// Query hitting only the first chunk.
	q := sqlparser.MustParse("SELECT * FROM TitanData WHERE X >= 0 AND X <= 5 AND Y <= 5 AND Z <= 5")
	afcs, err := p.Generate(query.ExtractRanges(q.Where), needed, titanLoader(t))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(afcs) != 1 || afcs[0].NumRows != 50 {
		t.Fatalf("afcs = %v", afcs)
	}
	s := afcs[0].Segments[0]
	if s.Offset != 0 || s.RowStride != 32 || s.RowBytes != 32 || len(s.Attrs) != 8 {
		t.Errorf("segment = %+v", s)
	}

	// Full scan hits both chunks.
	afcs, err = p.Generate(query.Ranges{}, needed, titanLoader(t))
	if err != nil || len(afcs) != 2 {
		t.Fatalf("full scan afcs = %d, %v", len(afcs), err)
	}
	if afcs[1].Segments[0].Offset != 50*32 {
		t.Errorf("second chunk offset = %d", afcs[1].Segments[0].Offset)
	}

	// Projection of a non-prefix subset splits segments.
	afcs, err = p.Generate(query.Ranges{}, []string{"X", "S1"}, titanLoader(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(afcs[0].Segments) != 2 {
		t.Fatalf("projected segments = %s", afcs[0].String())
	}
	if afcs[0].Segments[0].RowBytes != 4 || afcs[0].Segments[1].Offset != 12 {
		t.Errorf("projected = %s", afcs[0].String())
	}

	// Missing loader errors.
	if _, err := p.Generate(query.Ranges{}, needed, nil); err == nil {
		t.Error("nil loader accepted for chunked plan")
	}

	// Index/descriptor attribute mismatch errors.
	badIx, _ := index.Build([]string{"X", "Y"}, nil)
	badLoader := func(fi metadata.FileInstance) (*index.ChunkIndex, error) { return badIx, nil }
	if _, err := p.Generate(query.Ranges{}, needed, badLoader); err == nil {
		t.Error("index attr mismatch accepted")
	}
}

func TestAFCBytesAndString(t *testing.T) {
	a := AFC{
		NumRows: 10,
		Segments: []Segment{
			{File: "f1", RowStride: 8, RowBytes: 8, Attrs: []SegAttr{{Name: "A"}}},
			{File: "f2", RowStride: 0, RowBytes: 4, Attrs: []SegAttr{{Name: "B"}}},
		},
	}
	if got := a.Bytes(); got != 84 {
		t.Errorf("Bytes = %d", got)
	}
	if s := a.String(); !strings.Contains(s, "rows=10") || !strings.Contains(s, ":f1@0") {
		t.Errorf("String = %q", s)
	}
}

func TestCompileErrors(t *testing.T) {
	// Loop variable colliding with a binding variable. Parse rejects
	// the descriptor; Compile must still refuse it when built without
	// validation.
	src := `
[S]
A = float
T = int
[D]
DatasetDescription = S
DIR[0] = n0/d
Dataset "d" {
  DATATYPE { S }
  DATASPACE { LOOP T 0:9:1 { A } }
  DATA { DIR[0]/f$T T = 0:9:1 }
}
`
	if _, err := metadata.Parse(src); err == nil {
		t.Error("Parse accepted a loop/binding collision")
	}
	d, err := metadata.ParseUnvalidated(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := Compile(d); err == nil {
		t.Error("loop/binding collision accepted")
	}
}

// TestCompileLargeChunkedLeaf compiles a chunked leaf of 16,384 data
// and 16,384 index files: pairing them must be linear in the file
// count, not a comparison of every data file with every index file.
func TestCompileLargeChunkedLeaf(t *testing.T) {
	const n = 16384
	src := fmt.Sprintf(`[T]
X = int
A = float
[D]
DatasetDescription = T
DIR[0] = n0/t
Dataset "t" {
 DATATYPE { T }
 DATAINDEX { X }
 CHUNKED { X A }
 DATA { DIR[0]/c$P.dat P = 0:%d:1 }
 INDEXFILE { DIR[0]/c$P.idx P = 0:%d:1 }
}
`, n-1, n-1)
	d, err := metadata.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	p, err := Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Compile took %v, want < 2s", elapsed)
	}
	files := p.ChunkedLeaves[0].Files
	if len(files) != n || files[n-1].Index.Name != fmt.Sprintf("c%d.idx", n-1) {
		t.Fatalf("paired %d files, last = %+v", len(files), files[len(files)-1])
	}
}

func TestRowDimValueAt(t *testing.T) {
	rd := RowDim{Lo: 7, Step: 2}
	for i, want := range []int64{7, 9, 11, 13} {
		if got := rd.ValueAt(int64(i)); got != want {
			t.Errorf("ValueAt(%d) = %d, want %d", i, got, want)
		}
	}
}
