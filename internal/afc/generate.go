package afc

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"datavirt/internal/index"
	"datavirt/internal/layout"
	"datavirt/internal/metadata"
	"datavirt/internal/query"
	"datavirt/internal/schema"
)

// IndexLoader resolves the chunk index for an INDEXFILE instance. The
// AFC package does no I/O itself; callers supply a loader (typically a
// caching one over index.ReadFile).
type IndexLoader func(fi metadata.FileInstance) (*index.ChunkIndex, error)

// maxChunkCombos caps the number of AFC sets one file group may emit,
// guarding against degenerate descriptors.
const maxChunkCombos = 1 << 24

// Generate runs the query-time phases of the paper's Figure 5 and
// returns the aligned file chunks that must be read to answer a query
// whose WHERE clause implies ranges and whose select+where attributes
// are needed. The loader is only consulted for chunked leaves; pass nil
// for pure DATASPACE plans.
func (p *Plan) Generate(ranges query.Ranges, needed []string, loader IndexLoader) ([]AFC, error) {
	if err := p.CheckCoverage(needed); err != nil {
		return nil, err
	}
	if ranges.Unsatisfiable() {
		return nil, nil
	}
	neededSet := map[string]bool{}
	for _, n := range needed {
		neededSet[n] = true
	}
	var out []AFC
	var err error
	if len(p.DataLeaves) > 0 {
		if out, err = p.generateDataspace(out, ranges, neededSet); err != nil {
			return nil, err
		}
	}
	for _, cl := range p.ChunkedLeaves {
		if out, err = cl.generate(out, p.Schema, ranges, neededSet, loader); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Group is one aligned file group: one file from each attribute-set
// class, with consistent implicit attributes, plus the alignment
// analysis (union of loop dimensions and the chosen row axis). Groups
// are computed once per plan — they depend only on the meta-data, not
// on any query.
type Group struct {
	Files []*FileState
	// Dims is the union of the files' loop dimensions, outermost first.
	Dims []layout.Dim
	// Axis is the row-axis dimension when HasAxis is set.
	Axis    string
	HasAxis bool
	// Pins fixes dimensions that another group member binds per file:
	// when one file loops over a variable (say I) and a partner file is
	// one-of-many selected by a binding on the same variable (f.$I),
	// the group only joins consistently at the bound value. Groups
	// whose pin falls outside the dimension's lattice are discarded
	// during analysis.
	Pins map[string]int64
}

// Groups returns the file groups of the plan's DATASPACE leaves,
// computing and caching them on first use (Find_File_Groups, run at
// compile time since it needs no query input).
func (p *Plan) Groups() ([]Group, error) {
	p.groupsOnce.Do(func() {
		p.groups, p.groupsErr = p.analyzeGroups()
	})
	return p.groups, p.groupsErr
}

func (p *Plan) analyzeGroups() ([]Group, error) {
	// Classify files by the set of attributes they store.
	type class struct {
		key   string
		files []*FileState
	}
	var classes []*class
	classByKey := map[string]*class{}
	for _, lf := range p.DataLeaves {
		key := strings.Join(lf.Leaf.PayloadAttrs(), "\x00")
		c := classByKey[key]
		if c == nil {
			c = &class{key: key}
			classByKey[key] = c
			classes = append(classes, c)
		}
		for i := range lf.Files {
			c.files = append(c.files, &lf.Files[i])
		}
	}
	// Cartesian product with implicit-attribute consistency pruning.
	var groups []Group
	chosen := make([]*FileState, 0, len(classes))
	var pick func(i int) error
	pick = func(i int) error {
		if i == len(classes) {
			g := Group{Files: append([]*FileState(nil), chosen...)}
			have := map[string]bool{}
			for _, fs := range g.Files {
				for _, d := range fs.Layout.Dims {
					if !have[d.Var] {
						have[d.Var] = true
						g.Dims = append(g.Dims, d)
					}
				}
			}
			// Binding variables that name a group dimension pin it: the
			// paper's implicit-attribute consistency between a file
			// selected by the variable and files iterating over it.
			for _, fs := range g.Files {
				for v, val := range fs.Inst.Env {
					d, isDim := dimOf(g.Dims, v)
					if !isDim {
						continue
					}
					if val < d.Lo || val > d.Hi || (val-d.Lo)%d.Step != 0 {
						return nil // inconsistent group: discard
					}
					if g.Pins == nil {
						g.Pins = map[string]int64{}
					}
					g.Pins[v] = val // envAgrees guarantees a single value
				}
			}
			axis, hasAxis, err := chooseAxis(g.Files)
			if err != nil {
				return err
			}
			g.Axis, g.HasAxis = axis, hasAxis
			groups = append(groups, g)
			return nil
		}
		for _, fs := range classes[i].files {
			if !consistentWith(chosen, fs) {
				continue
			}
			chosen = append(chosen, fs)
			if err := pick(i + 1); err != nil {
				return err
			}
			chosen = chosen[:len(chosen)-1]
		}
		return nil
	}
	if err := pick(0); err != nil {
		return nil, err
	}
	return groups, nil
}

// generateDataspace implements the query-time part of Figure 5: prune
// the precomputed groups against the query ranges, then process each
// surviving group into aligned file chunks appended to out.
func (p *Plan) generateDataspace(out []AFC, ranges query.Ranges, needed map[string]bool) ([]AFC, error) {
	groups, err := p.Groups()
	if err != nil {
		return nil, err
	}
	for i := range groups {
		g := &groups[i]
		pruned := false
		for _, fs := range g.Files {
			if p.filePrunable(fs, ranges) {
				pruned = true
				break
			}
		}
		if pruned {
			continue
		}
		if out, err = processGroup(out, p.Schema, g, ranges, needed); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// filePrunable reports whether the file provably contributes no rows:
// some implicit attribute value (binding) lies outside the query ranges,
// or some loop dimension naming a schema attribute has an empty clip.
// This is the file-level index check of the paper's worked example
// ("files DATA2 and DATA3 will be excluded ... because the file names
// are related to the REL values").
func (p *Plan) filePrunable(fs *FileState, ranges query.Ranges) bool {
	for v, val := range fs.Inst.Env {
		if !p.Schema.Has(v) {
			continue
		}
		if !ranges.Get(v).Contains(float64(val)) {
			return true
		}
	}
	for _, d := range fs.Layout.Dims {
		if !p.Schema.Has(d.Var) {
			continue
		}
		if len(ranges.Get(d.Var).ClipInt(d.Lo, d.Hi, d.Step)) == 0 {
			return true
		}
	}
	return false
}

// consistentWith checks the candidate against the already-chosen files:
// shared binding variables must agree and shared loop dimensions must
// have identical bounds. This is the paper's "if the values of implicit
// attributes are not inconsistent" test — e.g. DIR[0]/COORD and
// DIR[1]/DATA0 have non-overlapping grid ranges and are rejected.
func consistentWith(chosen []*FileState, cand *FileState) bool {
	for _, prev := range chosen {
		for v, val := range prev.Inst.Env {
			if cv, ok := cand.Inst.Env[v]; ok && cv != val {
				return false
			}
		}
		for _, d := range prev.Layout.Dims {
			if cd, ok := cand.Layout.Dim(d.Var); ok && cd != d {
				return false
			}
		}
	}
	return true
}

// processGroup appends the aligned file chunks of one file group to out
// (Process_File_Groups). Work fixed for the group and the query is done
// once by newGroupChunks; each chunk then costs only its offsets, one
// sort and merge over reused scratch, and its cut of two slabs.
func processGroup(out []AFC, sch *schema.Schema, g *Group, ranges query.Ranges, needed map[string]bool) ([]AFC, error) {
	// Clip every dimension against the query ranges. Dimensions naming
	// schema attributes are constrained; others run in full. This is the
	// chunk-level index check ("Check against index", Figure 5): for the
	// worked example it reduces 500 TIME chunks to the 100 in range.
	clip := func(d layout.Dim) []query.IntRange {
		if pin, ok := g.Pins[d.Var]; ok {
			// Pinned by a group member's binding: the dimension joins at
			// a single value (its lattice validity was checked during
			// group analysis), still subject to the query's ranges.
			if sch.Has(d.Var) && !ranges.Get(d.Var).Contains(float64(pin)) {
				return nil
			}
			return []query.IntRange{{Lo: pin, Hi: pin, Step: d.Step}}
		}
		if sch.Has(d.Var) {
			return ranges.Get(d.Var).ClipInt(d.Lo, d.Hi, d.Step)
		}
		return []query.IntRange{{Lo: d.Lo, Hi: d.Hi, Step: d.Step}}
	}

	chunkDims := make([]layout.Dim, 0, len(g.Dims))
	chunkRuns := make([][]query.IntRange, 0, len(g.Dims))
	var axisRuns []query.IntRange
	combos := int64(1)
	for _, d := range g.Dims {
		runs := clip(d)
		if len(runs) == 0 {
			return out, nil
		}
		if g.HasAxis && d.Var == g.Axis {
			axisRuns = runs
			continue
		}
		chunkDims = append(chunkDims, d)
		chunkRuns = append(chunkRuns, runs)
		var vals int64
		for _, r := range runs {
			vals += r.Count()
		}
		combos *= vals
		if combos > maxChunkCombos {
			return nil, fmt.Errorf("afc: file group expands to more than %d aligned chunk sets", maxChunkCombos)
		}
	}
	if !g.HasAxis {
		axisRuns = []query.IntRange{{Lo: 0, Hi: 0, Step: 1}}
	}

	gc, err := newGroupChunks(sch, g, chunkDims, axisRuns, needed)
	if err != nil {
		return nil, err
	}
	gc.left = int(combos) * len(axisRuns)
	out = slices.Grow(out, int(combos)*len(axisRuns))
	// vals holds the chunk-dimension values followed by the axis run's
	// first value: the positions offsetTerm.dim indexes.
	vals := make([]int64, len(chunkDims)+1)
	var enum func(i int) error
	enum = func(i int) error {
		if i == len(chunkDims) {
			for r, run := range axisRuns {
				vals[i] = run.Lo
				a, err := gc.chunk(vals, run, r)
				if err != nil {
					return err
				}
				out = append(out, a)
			}
			return nil
		}
		for _, r := range chunkRuns[i] {
			for v := r.Lo; v <= r.Hi; v += r.Step {
				vals[i] = v
				if err := enum(i + 1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := enum(0); err != nil {
		return nil, err
	}
	return out, nil
}

// chooseAxis picks the row axis: the loop dimension shared by every
// dimensioned file of the group with the smallest worst-case byte
// stride, i.e. the dimension along which reads are closest to
// contiguous. It reports hasAxis=false when no file has dimensions.
func chooseAxis(group []*FileState) (string, bool, error) {
	var common map[string]bool
	dimmed := 0
	for _, fs := range group {
		if len(fs.Layout.Dims) == 0 {
			continue
		}
		dimmed++
		set := map[string]bool{}
		for _, d := range fs.Layout.Dims {
			set[d.Var] = true
		}
		if common == nil {
			common = set
			continue
		}
		for v := range common {
			if !set[v] {
				delete(common, v)
			}
		}
	}
	if dimmed == 0 {
		return "", false, nil
	}
	if len(common) == 0 {
		return "", false, fmt.Errorf("afc: file group has no common loop dimension to align on")
	}
	best, bestCost := "", int64(-1)
	for v := range common {
		var cost int64
		for _, fs := range group {
			for _, acc := range fs.Layout.Accesses {
				if s := acc.StrideAlong(v); s > cost {
					cost = s
				}
			}
		}
		if bestCost < 0 || cost < bestCost || (cost == bestCost && v < best) {
			best, bestCost = v, cost
		}
	}
	return best, true, nil
}

// groupChunks builds the chunks of one file group for one query. It
// holds what is fixed for the group and the query — each file's node
// and path, its needed accesses and their axis strides, the implicit
// attributes from file bindings, the row dimension of each axis run —
// and scratch that every chunk reuses. Slices it hands out (Attrs,
// binding-only Implicits, RowDims) are shared by the chunks and, like
// every AFC Generate returns, must be treated as immutable.
type groupChunks struct {
	node  string
	files []chunkFile
	accs  []neededAccess // the files' needed accesses, file by file
	terms []offsetTerm   // the accesses' offset terms, access by access

	// implicits come from file bindings and hold for every chunk;
	// dimImplicits are the chunk dimensions naming schema attributes.
	implicits    []Implicit
	dimImplicits []dimImplicit
	// rowDims holds each axis run's row dimension, nil when the axis
	// names no schema attribute.
	rowDims []RowDim

	refs []accRef  // one file's accesses in the current chunk, by offset
	segs []Segment // the current chunk's segments

	// left counts the chunks still to build; the slabs the chunks'
	// Segments and Implicits are cut from are sized by it.
	left     int
	segSlab  []Segment
	implSlab []Implicit
}

// chunkFile is a group file holding needed attributes: its segments'
// identity and its accesses, groupChunks.accs[first:end].
type chunkFile struct {
	node, path string
	big        bool
	first, end int
	// runs are the segment attribute lists built so far; a chunk whose
	// merge yields the same list shares its slice.
	runs [][]SegAttr
}

// neededAccess is a needed attribute's affine access path with its
// loop terms resolved to positions in the chunk's value vector:
//
//	offset = base + Σ (vals[dim] - lo) / step * stride  over terms[t0:t1]
type neededAccess struct {
	name   string
	kind   schema.Kind
	size   int64
	base   int64
	stride int64 // bytes between consecutive rows (along the axis)
	t0, t1 int
}

type offsetTerm struct {
	dim              int
	lo, step, stride int64
}

type accRef struct {
	off int64
	acc int // index into groupChunks.accs
}

type dimImplicit struct {
	dim  int
	name string
	kind schema.Kind
}

func newGroupChunks(sch *schema.Schema, g *Group, chunkDims []layout.Dim, axisRuns []query.IntRange,
	needed map[string]bool) (*groupChunks, error) {

	nAcc, nTerm := 0, 0
	for _, fs := range g.Files {
		for i := range fs.Layout.Accesses {
			nAcc++
			nTerm += len(fs.Layout.Accesses[i].Steps)
		}
	}
	gc := &groupChunks{
		files: make([]chunkFile, 0, len(g.Files)),
		accs:  make([]neededAccess, 0, nAcc),
		terms: make([]offsetTerm, 0, nTerm),
		refs:  make([]accRef, 0, nAcc),
		segs:  make([]Segment, 0, nAcc),
	}
	if len(g.Files) > 0 {
		gc.node = g.Files[0].Inst.Node()
	}
	dimIndex := func(v string) int {
		for i, d := range chunkDims {
			if d.Var == v {
				return i
			}
		}
		if g.HasAxis && v == g.Axis {
			return len(chunkDims)
		}
		return -1
	}
	// Implicit attributes: binding variables and chunk dimensions that
	// name schema attributes, each once. Group consistency guarantees
	// agreement.
	seen := func(name string) bool {
		return slices.ContainsFunc(gc.implicits, func(im Implicit) bool { return im.Name == name })
	}
	var envVars []string
	for _, fs := range g.Files {
		f := chunkFile{node: fs.Inst.Node(), big: fs.Big, first: len(gc.accs)}
		for i := range fs.Layout.Accesses {
			acc := &fs.Layout.Accesses[i]
			if !needed[acc.Attr] {
				continue
			}
			na := neededAccess{name: acc.Attr, kind: acc.Kind, size: acc.Size, base: acc.Base,
				stride: acc.StrideAlong(g.Axis), t0: len(gc.terms)}
			for _, st := range acc.Steps {
				d := dimIndex(st.Var)
				if d < 0 {
					return nil, fmt.Errorf("afc: access to %s needs dimension %s", acc.Attr, st.Var)
				}
				gc.terms = append(gc.terms, offsetTerm{dim: d, lo: st.Lo, step: st.Step, stride: st.StrideBytes})
			}
			na.t1 = len(gc.terms)
			gc.accs = append(gc.accs, na)
		}
		if f.end = len(gc.accs); f.end > f.first {
			f.path = fs.Inst.Path()
			gc.files = append(gc.files, f)
		}

		// Iterate deterministically for stable output.
		envVars = envVars[:0]
		for v := range fs.Inst.Env {
			envVars = append(envVars, v)
		}
		sort.Strings(envVars)
		for _, v := range envVars {
			if k, ok := sch.Kind(v); ok && !seen(v) {
				gc.implicits = append(gc.implicits, Implicit{Name: v, Value: schema.KindValue(k, float64(fs.Inst.Env[v]))})
			}
		}
	}
	for i, d := range chunkDims {
		if k, ok := sch.Kind(d.Var); ok && !seen(d.Var) {
			gc.dimImplicits = append(gc.dimImplicits, dimImplicit{dim: i, name: d.Var, kind: k})
		}
	}
	if k, ok := sch.Kind(g.Axis); ok && g.HasAxis {
		gc.rowDims = make([]RowDim, len(axisRuns))
		for r, run := range axisRuns {
			gc.rowDims[r] = RowDim{Name: g.Axis, Kind: k, Lo: run.Lo, Step: run.Step}
		}
	}
	return gc, nil
}

// chunk builds the aligned file chunk set of one chunk-dimension
// assignment and axis run r. vals holds the assignment followed by the
// run's first axis value.
func (gc *groupChunks) chunk(vals []int64, run query.IntRange, r int) (AFC, error) {
	a := AFC{NumRows: run.Count(), Node: gc.node, Implicits: gc.implicits}
	if gc.rowDims != nil {
		a.RowDims = gc.rowDims[r : r+1 : r+1]
	}
	segs := gc.segs[:0]
	for fi := range gc.files {
		f := &gc.files[fi]
		refs := gc.refs[:0]
		for k := f.first; k < f.end; k++ {
			na := &gc.accs[k]
			off := na.base
			for _, t := range gc.terms[na.t0:na.t1] {
				v := vals[t.dim]
				if (v-t.lo)%t.step != 0 {
					return AFC{}, fmt.Errorf("afc: access to %s: dimension value %d not on lattice %d:%d", na.name, v, t.lo, t.step)
				}
				off += (v - t.lo) / t.step * t.stride
			}
			refs = append(refs, accRef{off: off, acc: k})
		}
		// Offsets are affine in the chunk's values, so the order, and
		// with it the merge, can differ from chunk to chunk.
		slices.SortFunc(refs, func(x, y accRef) int { return cmp.Compare(x.off, y.off) })
		// Merge adjacent same-stride accesses into segments (the paper's
		// contiguous Num_Bytes per row).
		for i := 0; i < len(refs); {
			seg := Segment{Node: f.node, File: f.path, Offset: refs[i].off,
				RowStride: gc.accs[refs[i].acc].stride, BigEndian: f.big}
			j := i
			for ; j < len(refs); j++ {
				na := &gc.accs[refs[j].acc]
				if na.stride != seg.RowStride || refs[j].off != seg.Offset+seg.RowBytes ||
					seg.RowStride > 0 && seg.RowBytes+na.size > seg.RowStride {
					break
				}
				seg.RowBytes += na.size
			}
			seg.Attrs = f.attrs(gc.accs, refs[i:j])
			segs = append(segs, seg)
			i = j
		}
		gc.refs = refs
	}
	gc.segs = segs
	if len(segs) > 0 {
		a.Segments = cut(&gc.segSlab, len(segs), gc.left)
		copy(a.Segments, segs)
	}
	if len(gc.dimImplicits) > 0 {
		a.Implicits = cut(&gc.implSlab, len(gc.implicits)+len(gc.dimImplicits), gc.left)
		n := copy(a.Implicits, gc.implicits)
		for i, di := range gc.dimImplicits {
			a.Implicits[n+i] = Implicit{Name: di.name, Value: schema.KindValue(di.kind, float64(vals[di.dim]))}
		}
	}
	gc.left--
	return a, nil
}

// cut returns the next n elements of *slab, capped at n, first
// replacing the slab with one sized for the chunks still to come when
// it has too little room: a group allocates a few slabs rather than a
// slice per chunk.
func cut[T any](slab *[]T, n, chunks int) []T {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, n*max(chunks, 1))
	}
	i := len(*slab)
	*slab = (*slab)[:i+n]
	return (*slab)[i : i+n : i+n]
}

// attrs returns the attribute list of the segment merging refs'
// accesses. Its entries follow from the attribute names alone (kind and
// size are the attribute's), so names identify a list built earlier.
func (f *chunkFile) attrs(accs []neededAccess, refs []accRef) []SegAttr {
next:
	for _, run := range f.runs {
		if len(run) != len(refs) {
			continue
		}
		for i, r := range refs {
			if run[i].Name != accs[r.acc].name {
				continue next
			}
		}
		return run
	}
	run := make([]SegAttr, len(refs))
	var off int64
	for i, r := range refs {
		na := &accs[r.acc]
		run[i] = SegAttr{Name: na.name, Kind: na.kind, Off: off}
		off += na.size
	}
	f.runs = append(f.runs, run)
	return run
}

// generate appends the AFCs of a chunked leaf to out: one AFC per chunk
// whose MBR intersects the query, as reported by the paired index file.
// A file's segments differ between its chunks only by the chunk's
// offset, so they are merged once per file and shifted per chunk.
func (cl *ChunkedLeaf) generate(out []AFC, sch *schema.Schema, ranges query.Ranges, needed map[string]bool, loader IndexLoader) ([]AFC, error) {
	if loader == nil {
		return nil, fmt.Errorf("afc: chunked dataset %q requires an index loader", cl.Node.Name)
	}
	// Record-internal offsets of the needed attributes.
	type field struct {
		off  int64
		attr schema.Attribute
	}
	var fields []field
	off := int64(0)
	for _, at := range cl.Attrs {
		if needed[at.Name] {
			fields = append(fields, field{off: off, attr: at})
		}
		off += int64(at.Kind.Size())
	}
	for _, cf := range cl.Files {
		pruned := false
		for v, val := range cf.Data.Env {
			if sch.Has(v) && !ranges.Get(v).Contains(float64(val)) {
				pruned = true
				break
			}
		}
		if pruned {
			continue
		}
		ix, err := loader(cf.Index)
		if err != nil {
			return nil, fmt.Errorf("afc: loading index %s: %w", cf.Index, err)
		}
		if got := ix.Attrs(); !equalStrings(got, cl.IndexAttrs) {
			return nil, fmt.Errorf("afc: index %s covers attributes %v, descriptor declares %v",
				cf.Index, got, cl.IndexAttrs)
		}
		var implicits []Implicit
		envVars := make([]string, 0, len(cf.Data.Env))
		for v := range cf.Data.Env {
			envVars = append(envVars, v)
		}
		sort.Strings(envVars)
		for _, v := range envVars {
			if k, ok := sch.Kind(v); ok {
				implicits = append(implicits, Implicit{Name: v, Value: schema.KindValue(k, float64(cf.Data.Env[v]))})
			}
		}
		// Segments at chunk offset 0.
		node, path := cf.Data.Node(), cf.Data.Path()
		var segs []Segment
		for i := 0; i < len(fields); {
			seg := Segment{Node: node, File: path, Offset: fields[i].off, RowStride: cl.RecordBytes, BigEndian: cl.Big}
			j := i
			for ; j < len(fields); j++ {
				f := fields[j]
				if f.off != seg.Offset+seg.RowBytes || seg.RowBytes+int64(f.attr.Kind.Size()) > seg.RowStride {
					break
				}
				seg.Attrs = append(seg.Attrs, SegAttr{Name: f.attr.Name, Kind: f.attr.Kind, Off: seg.RowBytes})
				seg.RowBytes += int64(f.attr.Kind.Size())
			}
			segs = append(segs, seg)
			i = j
		}
		for _, chunk := range ix.Search(ranges) {
			a := AFC{NumRows: chunk.NumRows, Implicits: implicits, Node: node}
			if len(segs) > 0 {
				a.Segments = slices.Clone(segs)
				for i := range a.Segments {
					a.Segments[i].Offset += chunk.Offset
				}
			}
			out = append(out, a)
		}
	}
	return out, nil
}

// dimOf finds the named dimension in a dim list.
func dimOf(dims []layout.Dim, v string) (layout.Dim, bool) {
	for _, d := range dims {
		if d.Var == v {
			return d, true
		}
	}
	return layout.Dim{}, false
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
