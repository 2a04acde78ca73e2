package layout

import (
	"math/rand"
	"testing"
	"testing/quick"

	"datavirt/internal/metadata"
	"datavirt/internal/schema"
)

func mustParse(t *testing.T, src string) *metadata.Descriptor {
	t.Helper()
	d, err := metadata.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

func kindsOf(t *testing.T, d *metadata.Descriptor, n *metadata.DatasetNode) map[string]schema.Kind {
	t.Helper()
	kinds, err := d.LeafKinds(n)
	if err != nil {
		t.Fatalf("LeafKinds: %v", err)
	}
	return kinds
}

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

func TestCompileLeafIpars(t *testing.T) {
	d := mustParse(t, iparsSrc)
	ip2 := d.Layout.Children[1]
	leaf, err := CompileLeaf(ip2, kindsOf(t, d, ip2))
	if err != nil {
		t.Fatalf("CompileLeaf: %v", err)
	}
	attrs := leaf.PayloadAttrs()
	if len(attrs) != 2 || attrs[0] != "SOIL" || attrs[1] != "SGAS" {
		t.Errorf("payload = %v", attrs)
	}
}

func TestInstantiateIpars2(t *testing.T) {
	d := mustParse(t, iparsSrc)
	ip2 := d.Layout.Children[1]
	leaf, err := CompileLeaf(ip2, kindsOf(t, d, ip2))
	if err != nil {
		t.Fatal(err)
	}
	fl, err := leaf.Instantiate(metadata.Env{"DIRID": 1, "REL": 2})
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	// 500 time steps × 100 grid points × (4+4) bytes.
	if fl.TotalBytes != 500*100*8 {
		t.Errorf("TotalBytes = %d", fl.TotalBytes)
	}
	if len(fl.Dims) != 2 || fl.Dims[0].Var != "TIME" || fl.Dims[1].Var != "GRID" {
		t.Fatalf("Dims = %+v", fl.Dims)
	}
	grid, _ := fl.Dim("GRID")
	if grid.Lo != 101 || grid.Hi != 200 || grid.Count() != 100 {
		t.Errorf("GRID dim = %+v", grid)
	}
	soil := fl.Access("SOIL")
	sgas := fl.Access("SGAS")
	if soil == nil || sgas == nil {
		t.Fatal("missing accesses")
	}
	if soil.Base != 0 || sgas.Base != 4 {
		t.Errorf("bases = %d, %d", soil.Base, sgas.Base)
	}
	if soil.StrideAlong("TIME") != 800 || soil.StrideAlong("GRID") != 8 {
		t.Errorf("SOIL strides = %d, %d", soil.StrideAlong("TIME"), soil.StrideAlong("GRID"))
	}
	if soil.StrideAlong("NOPE") != 0 {
		t.Error("stride along missing dim should be 0")
	}
	// Offset of SOIL at TIME=3, GRID=105: (3-1)*800 + (105-101)*8 = 1632.
	off, err := soil.Offset(map[string]int64{"TIME": 3, "GRID": 105})
	if err != nil || off != 1632 {
		t.Errorf("Offset = %d, %v", off, err)
	}
	// SGAS at the same point is 4 bytes later.
	off2, _ := sgas.Offset(map[string]int64{"TIME": 3, "GRID": 105})
	if off2 != 1636 {
		t.Errorf("SGAS offset = %d", off2)
	}
	if !fl.HasAttr("SOIL") || fl.HasAttr("X") {
		t.Error("HasAttr misbehaves")
	}
}

func TestInstantiateCoords(t *testing.T) {
	d := mustParse(t, iparsSrc)
	ip1 := d.Layout.Children[0]
	leaf, err := CompileLeaf(ip1, kindsOf(t, d, ip1))
	if err != nil {
		t.Fatal(err)
	}
	fl, err := leaf.Instantiate(metadata.Env{"DIRID": 0})
	if err != nil {
		t.Fatal(err)
	}
	if fl.TotalBytes != 100*12 {
		t.Errorf("TotalBytes = %d", fl.TotalBytes)
	}
	y := fl.Access("Y")
	if y.Base != 4 || y.StrideAlong("GRID") != 12 {
		t.Errorf("Y = %+v", y)
	}
	off, _ := y.Offset(map[string]int64{"GRID": 5})
	if off != 4*12+4 {
		t.Errorf("Y offset at GRID=5: %d", off)
	}
}

const soaSrc = `
[S]
A = float
B = double

[D]
DatasetDescription = S
DIR[0] = n0/d

Dataset "d" {
  DATATYPE { S }
  DATASPACE {
    LOOP T 0:1:1 {
      LOOP G 0:9:1 { A }
      LOOP G 0:9:1 { B }
    }
  }
  DATA { DIR[0]/f }
}
`

func TestInstantiateSOA(t *testing.T) {
	d := mustParse(t, soaSrc)
	n := d.Layout
	leaf, err := CompileLeaf(n, kindsOf(t, d, n))
	if err != nil {
		t.Fatal(err)
	}
	fl, err := leaf.Instantiate(metadata.Env{})
	if err != nil {
		t.Fatal(err)
	}
	// Per T iteration: 10×4 (A array) + 10×8 (B array) = 120; total 240.
	if fl.TotalBytes != 240 {
		t.Errorf("TotalBytes = %d", fl.TotalBytes)
	}
	// G appears in two sibling loops but is a single dimension.
	if len(fl.Dims) != 2 {
		t.Fatalf("Dims = %+v", fl.Dims)
	}
	a, b := fl.Access("A"), fl.Access("B")
	if a.StrideAlong("T") != 120 || a.StrideAlong("G") != 4 {
		t.Errorf("A strides = %d/%d", a.StrideAlong("T"), a.StrideAlong("G"))
	}
	if b.Base != 40 || b.StrideAlong("T") != 120 || b.StrideAlong("G") != 8 {
		t.Errorf("B = base %d strides %d/%d", b.Base, b.StrideAlong("T"), b.StrideAlong("G"))
	}
	// B at T=1, G=2: 120 + 40 + 2*8 = 176.
	off, err := b.Offset(map[string]int64{"T": 1, "G": 2})
	if err != nil || off != 176 {
		t.Errorf("B offset = %d, %v", off, err)
	}
}

func TestInstantiateErrors(t *testing.T) {
	// Inconsistent sibling bounds for the same variable. Parse rejects
	// the descriptor; Instantiate must still refuse it when built
	// without validation.
	src := `
[S]
A = float
B = float
[D]
DatasetDescription = S
DIR[0] = n0/d
Dataset "d" {
  DATATYPE { S }
  DATASPACE {
    LOOP G 0:9:1 { A }
    LOOP G 0:8:1 { B }
  }
  DATA { DIR[0]/f }
}
`
	if _, err := metadata.Parse(src); err == nil {
		t.Error("Parse accepted inconsistent sibling bounds")
	}
	d, err := metadata.ParseUnvalidated(src)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := CompileLeaf(d.Layout, kindsOf(t, d, d.Layout))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leaf.Instantiate(metadata.Env{}); err == nil {
		t.Error("inconsistent sibling bounds accepted")
	}

	// Unbound $VAR in a bound surfaces at instantiation.
	d2 := mustParse(t, iparsSrc)
	ip1 := d2.Layout.Children[0]
	leaf2, _ := CompileLeaf(ip1, kindsOf(t, d2, ip1))
	if _, err := leaf2.Instantiate(metadata.Env{}); err == nil {
		t.Error("missing DIRID accepted")
	}
}

func TestCompileLeafErrors(t *testing.T) {
	// Duplicate attribute in one dataspace.
	src := `
[S]
A = float
[D]
DatasetDescription = S
DIR[0] = n0/d
Dataset "d" {
  DATATYPE { S }
  DATASPACE { LOOP G 0:9:1 { A A } }
  DATA { DIR[0]/f }
}
`
	// Parse rejects the duplicate (span-overlap); CompileLeaf must still
	// refuse it when built without validation.
	if _, err := metadata.Parse(src); err == nil {
		t.Error("Parse accepted a duplicate payload attribute")
	}
	d, err := metadata.ParseUnvalidated(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileLeaf(d.Layout, kindsOf(t, d, d.Layout)); err == nil {
		t.Error("duplicate payload attribute accepted")
	}
}

func TestOffsetErrors(t *testing.T) {
	a := Access{Attr: "A", Size: 4, Steps: []AccessStep{{Var: "G", Lo: 0, Step: 2, StrideBytes: 4}}}
	if _, err := a.Offset(map[string]int64{}); err == nil {
		t.Error("missing dim accepted")
	}
	if _, err := a.Offset(map[string]int64{"G": 3}); err == nil {
		t.Error("off-lattice value accepted")
	}
}

// Property: for a random AOS loop nest, the element intervals
// [offset, offset+size) over all dimension values and attributes
// exactly partition [0, TotalBytes).
func TestAccessPartitionQuick(t *testing.T) {
	kinds := map[string]schema.Kind{
		"A": schema.Float, "B": schema.Double, "C": schema.Short, "D": schema.Char,
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random nest: 1-3 loops deep, random attrs at each level.
		attrsLeft := []string{"A", "B", "C", "D"}
		rng.Shuffle(len(attrsLeft), func(i, j int) { attrsLeft[i], attrsLeft[j] = attrsLeft[j], attrsLeft[i] })
		vars := []string{"I", "J", "K"}
		depth := rng.Intn(3) + 1
		var build func(level int) []metadata.SpaceItem
		build = func(level int) []metadata.SpaceItem {
			var items []metadata.SpaceItem
			// Maybe an attribute before the loop.
			take := func() {
				if len(attrsLeft) > 0 && rng.Intn(2) == 0 {
					items = append(items, metadata.AttrRef{Name: attrsLeft[0]})
					attrsLeft = attrsLeft[1:]
				}
			}
			take()
			if level < depth {
				lo := int64(rng.Intn(5))
				cnt := int64(rng.Intn(4) + 1)
				step := int64(rng.Intn(2) + 1)
				body := build(level + 1)
				items = append(items, &metadata.Loop{
					Var:  vars[level],
					Lo:   metadata.NumberExpr{Value: lo},
					Hi:   metadata.NumberExpr{Value: lo + (cnt-1)*step},
					Step: metadata.NumberExpr{Value: step},
					Body: body,
				})
			}
			take()
			if len(items) == 0 {
				items = append(items, metadata.AttrRef{Name: attrsLeft[0]})
				attrsLeft = attrsLeft[1:]
			}
			return items
		}
		items := build(0)
		node := &metadata.DatasetNode{
			Name:  "rand",
			Space: &metadata.Dataspace{Items: items},
			Files: []metadata.FileClause{{Dir: metadata.NumberExpr{Value: 0},
				Name: []metadata.NamePart{{Lit: "f"}}}},
		}
		leaf, err := CompileLeaf(node, kinds)
		if err != nil {
			return false
		}
		fl, err := leaf.Instantiate(metadata.Env{})
		if err != nil {
			return false
		}
		covered := make([]bool, fl.TotalBytes)
		// Enumerate the full cartesian product of dims.
		var dims []Dim = fl.Dims
		vals := map[string]int64{}
		var enum func(i int) bool
		enum = func(i int) bool {
			if i == len(dims) {
				for _, acc := range fl.Accesses {
					// Skip accesses not varying over trailing dims: they
					// are covered only for the dims they use. Offset needs
					// only its own vars, which vals includes.
					off, err := acc.Offset(vals)
					if err != nil {
						return false
					}
					// Only mark each element once: when the unused dims
					// are at their lower bounds.
					atLo := true
					used := map[string]bool{}
					for _, s := range acc.Steps {
						used[s.Var] = true
					}
					for _, d := range dims {
						if !used[d.Var] && vals[d.Var] != d.Lo {
							atLo = false
						}
					}
					if !atLo {
						continue
					}
					for b := off; b < off+acc.Size; b++ {
						if b < 0 || b >= fl.TotalBytes || covered[b] {
							return false
						}
						covered[b] = true
					}
				}
				return true
			}
			d := dims[i]
			for v := d.Lo; v <= d.Hi; v += d.Step {
				vals[d.Var] = v
				if !enum(i + 1) {
					return false
				}
			}
			return true
		}
		if !enum(0) {
			return false
		}
		for _, c := range covered {
			if !c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}
