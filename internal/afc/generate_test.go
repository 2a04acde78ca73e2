package afc

import (
	"testing"

	"datavirt/internal/gen"
	"datavirt/internal/layout"
	"datavirt/internal/metadata"
	"datavirt/internal/query"
	"datavirt/internal/schema"
	"datavirt/internal/sqlparser"
)

// planningSpec is the L0 dataset of the scan.full and agg.group
// benchmark workloads: 4 realizations × 128 time steps × 1000 cells,
// every attribute in its own file, 512 chunks per full scan.
var planningSpec = gen.IparsSpec{Realizations: 4, TimeSteps: 128, GridPoints: 1000, Partitions: 1, Attrs: 17}

// planningCase is one query planned by BenchmarkGenerate.
type planningCase struct {
	name   string
	layout string
	spec   gen.IparsSpec
	sql    string
}

var planningCases = []planningCase{
	{"L0/scan", "L0", planningSpec, "SELECT * FROM IparsData"},
	{"L0/agg", "L0", planningSpec, "SELECT TIME, SOIL, POIL, OILVX, SGAS FROM IparsData WHERE SGAS > 0.3"},
	{"I/point", "I", gen.IparsSpec{Realizations: 4, TimeSteps: 128, GridPoints: 2000, Partitions: 1, Attrs: 17},
		"SELECT X, Y, SOIL, POIL FROM IparsData WHERE TIME = 64 AND REL = 2"},
}

// planningInputs compiles the case's descriptor and derives Generate's
// arguments from its SQL.
func planningInputs(tb testing.TB, c planningCase) (*Plan, query.Ranges, []string) {
	tb.Helper()
	src, err := gen.IparsDescriptor(c.spec, c.layout)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := metadata.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := Compile(d)
	if err != nil {
		tb.Fatal(err)
	}
	q := sqlparser.MustParse(c.sql)
	return p, query.ExtractRanges(q.Where), goldenNeeded(p, q)
}

// BenchmarkGenerate measures query-time planning (Process_File_Groups)
// on the benchmark's L0 full scan and aggregate and on a layout-I point
// read.
func BenchmarkGenerate(b *testing.B) {
	for _, c := range planningCases {
		b.Run(c.name, func(b *testing.B) {
			p, ranges, needed := planningInputs(b, c)
			afcs, err := p.Generate(ranges, needed, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Generate(ranges, needed, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(afcs)), "chunks/op")
		})
	}
}

// TestGenerateAllocsPerChunk guards the per-group hoisting: planning the
// L0 full scan may allocate at most 4 times per emitted chunk. Work
// fixed for a file group (paths, needed accesses, implicit attributes,
// segment attribute runs) must not be redone per chunk.
func TestGenerateAllocsPerChunk(t *testing.T) {
	p, ranges, needed := planningInputs(t, planningCases[0])
	afcs, err := p.Generate(ranges, needed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(afcs) != 512 {
		t.Fatalf("L0 full scan planned %d chunks, want 512", len(afcs))
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := p.Generate(ranges, needed, nil); err != nil {
			t.Fatal(err)
		}
	})
	if perChunk := allocs / float64(len(afcs)); perChunk > 4 {
		t.Errorf("Generate allocates %.1f times per chunk (%.0f per plan of %d chunks), want <= 4",
			perChunk, allocs, len(afcs))
	}
}

// TestMergeVariesByChunk: offsets are affine in the chunk dimensions,
// so two accesses adjacent in one chunk can be apart in the next when
// their strides along a chunk dimension differ. Each chunk must get its
// own merge. Here A and B share one 8-byte row run at T=0 and fall into
// separate segments at T=1.
func TestMergeVariesByChunk(t *testing.T) {
	sch := schema.MustNew("S", []schema.Attribute{{Name: "T", Kind: schema.Int}, {Name: "A", Kind: schema.Float}, {Name: "B", Kind: schema.Float}})
	access := func(name string, base, tStride int64) layout.Access {
		return layout.Access{Attr: name, Kind: schema.Float, Size: 4, Base: base, Steps: []layout.AccessStep{
			{Var: "T", Lo: 0, Step: 1, StrideBytes: tStride},
			{Var: "G", Lo: 0, Step: 1, StrideBytes: 8},
		}}
	}
	dims := []layout.Dim{{Var: "T", Lo: 0, Hi: 1, Step: 1}, {Var: "G", Lo: 0, Hi: 1, Step: 1}}
	fs := &FileState{
		Inst:   metadata.FileInstance{Dir: metadata.DirEntry{Node: "n0", Path: "d"}, Name: "f"},
		Layout: &layout.FileLayout{Dims: dims, Accesses: []layout.Access{access("A", 0, 64), access("B", 4, 128)}},
	}
	g := &Group{Files: []*FileState{fs}, Dims: dims, Axis: "G", HasAxis: true}
	afcs, err := processGroup(nil, sch, g, query.Ranges{}, map[string]bool{"A": true, "B": true})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"AFC{rows=2, n0:d/f@0+8x8(A,B), T=0}",
		"AFC{rows=2, n0:d/f@64+8x4(A), n0:d/f@132+8x4(B), T=1}",
	}
	if len(afcs) != len(want) {
		t.Fatalf("got %d chunks, want %d: %v", len(afcs), len(want), afcs)
	}
	for i := range want {
		if got := afcs[i].String(); got != want[i] {
			t.Errorf("chunk %d = %s, want %s", i, got, want[i])
		}
	}
	if off := afcs[1].Segments[1].Attrs[0].Off; off != 0 {
		t.Errorf("B's offset in its own segment = %d, want 0", off)
	}
}
