package afc

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"datavirt/internal/layout"
	"datavirt/internal/metadata"
	"datavirt/internal/schema"
)

// Plan is the product of the tool's compile phase: every file of every
// leaf dataset enumerated and its layout instantiated, once, when the
// descriptor is loaded. Query-time work (Generate) only intersects the
// query's ranges with these precomputed structures — "the expensive
// processing associated with the meta-data does not need to be carried
// out at runtime" (paper §4).
type Plan struct {
	Desc   *metadata.Descriptor
	Schema *schema.Schema

	// DataLeaves holds DATASPACE leaves; ChunkedLeaves holds CHUNKED
	// leaves. A descriptor uses one style or the other.
	DataLeaves    []*LeafFiles
	ChunkedLeaves []*ChunkedLeaf

	groupsOnce sync.Once
	groups     []Group
	groupsErr  error
	// avail is the set AvailableAttrs lists, fixed at Compile.
	avail map[string]bool
}

// LeafFiles is one compiled DATASPACE leaf with its file instances.
type LeafFiles struct {
	Leaf  *layout.Leaf
	Files []FileState
}

// FileState pairs a concrete file with its instantiated layout.
type FileState struct {
	Inst   metadata.FileInstance
	Layout *layout.FileLayout
	// Big marks files whose dataset declares BYTEORDER { BIG }.
	Big bool
}

// ChunkedLeaf is one compiled CHUNKED leaf.
type ChunkedLeaf struct {
	Node *metadata.DatasetNode
	// Attrs is the per-record attribute order with resolved kinds.
	Attrs []schema.Attribute
	// RecordBytes is the fixed record size.
	RecordBytes int64
	// IndexAttrs names the DATAINDEX attributes of the paired index
	// files, in index order.
	IndexAttrs []string
	// Files pairs each data file with its index file.
	Files []ChunkedFile
	// Big marks datasets declared with BYTEORDER { BIG }.
	Big bool
}

// ChunkedFile is a data file and its paired index file.
type ChunkedFile struct {
	Data  metadata.FileInstance
	Index metadata.FileInstance
}

// Compile builds a Plan from a validated descriptor.
func Compile(d *metadata.Descriptor) (*Plan, error) {
	sch := d.TableSchema()
	if sch == nil {
		return nil, fmt.Errorf("afc: descriptor has no resolvable table schema")
	}
	p := &Plan{Desc: d, Schema: sch}
	for _, node := range d.Layout.Leaves(nil) {
		esch, extras, err := d.EffectiveSchema(node)
		if err != nil {
			return nil, err
		}
		kinds := make(map[string]schema.Kind, esch.NumAttrs()+len(extras))
		for _, a := range esch.Attrs() {
			kinds[a.Name] = a.Kind
		}
		for _, a := range extras {
			kinds[a.Name] = a.Kind
		}
		files, err := metadata.ExpandLeaf(d.Storage, node)
		if err != nil {
			return nil, err
		}
		big := d.EffectiveByteOrder(node) == "BIG"
		if len(node.Chunked) > 0 {
			cl, err := compileChunked(d, node, kinds, files)
			if err != nil {
				return nil, err
			}
			cl.Big = big
			p.ChunkedLeaves = append(p.ChunkedLeaves, cl)
			continue
		}
		leaf, err := layout.CompileLeaf(node, kinds)
		if err != nil {
			return nil, err
		}
		lf := &LeafFiles{Leaf: leaf}
		for _, fi := range files {
			fl, err := leaf.Instantiate(fi.Env)
			if err != nil {
				return nil, fmt.Errorf("afc: file %s: %w", fi, err)
			}
			// Loop variables must not collide with binding variables: the
			// value would be ambiguous (implicit constant vs row axis).
			for _, dim := range fl.Dims {
				if _, clash := fi.Env[dim.Var]; clash {
					return nil, fmt.Errorf("afc: file %s: loop variable %s collides with a file binding", fi, dim.Var)
				}
			}
			lf.Files = append(lf.Files, FileState{Inst: fi, Layout: fl, Big: big})
		}
		p.DataLeaves = append(p.DataLeaves, lf)
	}
	if len(p.DataLeaves) > 0 && len(p.ChunkedLeaves) > 0 {
		return nil, fmt.Errorf("afc: descriptor mixes DATASPACE and CHUNKED leaves; use one style per dataset")
	}
	if len(p.DataLeaves) == 0 && len(p.ChunkedLeaves) == 0 {
		return nil, fmt.Errorf("afc: descriptor has no leaf datasets")
	}
	p.avail = p.availableSet()
	return p, nil
}

func compileChunked(d *metadata.Descriptor, node *metadata.DatasetNode, kinds map[string]schema.Kind, files []metadata.FileInstance) (*ChunkedLeaf, error) {
	cl := &ChunkedLeaf{Node: node, IndexAttrs: d.EffectiveIndexAttrs(node)}
	if len(cl.IndexAttrs) == 0 {
		return nil, fmt.Errorf("afc: chunked dataset %q has no DATAINDEX", node.Name)
	}
	for _, name := range node.Chunked {
		k, ok := kinds[name]
		if !ok {
			return nil, fmt.Errorf("afc: chunked dataset %q: unknown attribute %q", node.Name, name)
		}
		cl.Attrs = append(cl.Attrs, schema.Attribute{Name: name, Kind: k})
		cl.RecordBytes += int64(k.Size())
	}
	for _, a := range cl.IndexAttrs {
		found := false
		for _, rec := range cl.Attrs {
			if rec.Name == a {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("afc: chunked dataset %q: DATAINDEX attribute %q is not in the record", node.Name, a)
		}
	}
	pairs, err := metadata.ExpandIndexFiles(d.Storage, node, files)
	if err != nil {
		return nil, err
	}
	for i, fi := range files {
		cl.Files = append(cl.Files, ChunkedFile{Data: fi, Index: pairs[i]})
	}
	return cl, nil
}

// AvailableAttrs returns every schema attribute obtainable from the
// plan: payload attributes plus implicit ones (file bindings and loop
// variables that name schema attributes).
func (p *Plan) AvailableAttrs() []string {
	out := make([]string, 0, len(p.avail))
	for a := range p.avail {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func (p *Plan) availableSet() map[string]bool {
	avail := map[string]bool{}
	for _, lf := range p.DataLeaves {
		for _, a := range lf.Leaf.PayloadAttrs() {
			if p.Schema.Has(a) {
				avail[a] = true
			}
		}
		for _, fs := range lf.Files {
			for v := range fs.Inst.Env {
				if p.Schema.Has(v) {
					avail[v] = true
				}
			}
			for _, d := range fs.Layout.Dims {
				if p.Schema.Has(d.Var) {
					avail[d.Var] = true
				}
			}
		}
	}
	for _, cl := range p.ChunkedLeaves {
		for _, a := range cl.Attrs {
			if p.Schema.Has(a.Name) {
				avail[a.Name] = true
			}
		}
		for _, cf := range cl.Files {
			for v := range cf.Data.Env {
				if p.Schema.Has(v) {
					avail[v] = true
				}
			}
		}
	}
	return avail
}

// CheckCoverage verifies that every needed attribute is obtainable.
func (p *Plan) CheckCoverage(needed []string) error {
	var missing []string
	for _, n := range needed {
		if !p.avail[n] {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("afc: attributes not available from the dataset layout: %s",
			strings.Join(missing, ", "))
	}
	return nil
}

// TotalDataBytes sums the layout-implied sizes of all data files — the
// full-scan volume of the dataset. Chunked leaves are excluded (their
// size is in the index, not the layout).
func (p *Plan) TotalDataBytes() int64 {
	var n int64
	for _, lf := range p.DataLeaves {
		for _, fs := range lf.Files {
			n += fs.Layout.TotalBytes
		}
	}
	return n
}
