package metadata

import (
	"fmt"
	"sort"

	"datavirt/internal/schema"
)

// Severity classifies a diagnostic. Errors make Validate, and so Parse,
// reject the descriptor and `dvdesc check` exit non-zero; warnings do
// neither.
type Severity string

const (
	// SevError marks a descriptor the generated extractor would
	// misread or fail on.
	SevError Severity = "error"
	// SevWarning marks suspicious but not provably wrong layout.
	SevWarning Severity = "warning"
)

// Diagnostic is one positioned finding. Line/Col are 1-based; 0 means
// the position is unknown (e.g. programmatically built descriptors).
// File is left empty by Check; the lint front end fills it in.
type Diagnostic struct {
	File     string   `json:"file"`
	Line     int      `json:"line,omitempty"`
	Col      int      `json:"col,omitempty"`
	Severity Severity `json:"severity"`
	Code     string   `json:"code"`
	Message  string   `json:"message"`
}

// String renders the conventional compiler form
// "file:line:col: severity: message [code]".
func (d Diagnostic) String() string {
	pos := d.File
	if d.Line > 0 {
		pos = fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
	}
	return fmt.Sprintf("%s: %s: %s [%s]", pos, d.Severity, d.Message, d.Code)
}

// HasErrors reports whether any diagnostic has error severity.
func HasErrors(ds []Diagnostic) bool {
	for _, d := range ds {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// Error is a rejected descriptor: the first error-severity diagnostic
// Validate finds, or a file clause the expander refuses. Use errors.As
// to recover its position and code.
type Error struct {
	Pos  Pos
	Code string
	Msg  string
}

func (e *Error) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("metadata: %s: %s [%s]", e.Pos, e.Msg, e.Code)
	}
	return fmt.Sprintf("metadata: %s [%s]", e.Msg, e.Code)
}

func errorf(pos Pos, code, format string, args ...any) *Error {
	return &Error{Pos: pos, Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Validate returns Check's first error-severity diagnostic as an *Error,
// or nil when the descriptor has none. Parse, ParseXML and FromBinX call
// it, so every accepted descriptor compiles and describes at most
// maxFiles files.
func Validate(d *Descriptor) error {
	for _, dg := range Check(d) {
		if dg.Severity == SevError {
			return &Error{Pos: Pos{Line: dg.Line, Col: dg.Col}, Code: dg.Code, Msg: dg.Message}
		}
	}
	return nil
}

// Check is the descriptor front end's semantic pass: one walk of the
// tree that reports every structural, layout and file-set problem it
// finds, sorted by position. It reads no data file; file clauses are
// expanded symbolically under one budget of maxFiles files for the
// whole descriptor.
func Check(d *Descriptor) []Diagnostic {
	c := &checker{
		d:          d,
		names:      map[string]bool{},
		usedDirs:   map[int]bool{},
		dims:       map[string][]dimRec{},
		bound:      map[string]bool{},
		referenced: map[string]bool{},
		seenFiles:  map[string]Pos{},
	}
	c.run()
	sort.SliceStable(c.diags, func(i, j int) bool {
		a, b := c.diags[i], c.diags[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return c.diags
}

// checker carries one Check invocation's state.
type checker struct {
	d     *Descriptor
	diags []Diagnostic

	// names holds every dataset name seen so far.
	names map[string]bool
	// files counts the files expanded so far against maxFiles; past it,
	// no further clause is expanded.
	files int
	// usedDirs marks storage-directory indexes some clause expands to.
	usedDirs map[int]bool
	// dirsUnknowable is set when any clause was not expanded, making
	// dir-unused undecidable.
	dirsUnknowable bool
	// dims collects, per variable, every distinct iteration extent seen
	// (from LOOPs and clause bindings) with the position declaring it.
	dims map[string][]dimRec
	// bound collects every attribute/variable name some leaf lays out.
	bound map[string]bool
	// referenced additionally includes DATAINDEX names (counts as a use
	// for attr-unused, but not as a binding for attr-unbound).
	referenced map[string]bool
	// seenFiles maps each DATA or INDEXFILE kind plus concrete
	// node:path to the clause that first produced it.
	seenFiles map[string]Pos
	// spaceLeaf and chunkedLeaf are the first leaf of each style.
	spaceLeaf, chunkedLeaf *DatasetNode
}

// dimRec is one observed iteration extent of a variable.
type dimRec struct {
	extent int64
	pos    Pos
	where  string // "LOOP X in dataset \"d\"" / "binding X in dataset \"d\""
}

func (c *checker) report(pos Pos, sev Severity, code, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Line: pos.Line, Col: pos.Col,
		Severity: sev, Code: code, Message: fmt.Sprintf(format, args...),
	})
}

func (c *checker) reportErr(err error) {
	e := err.(*Error)
	c.report(e.Pos, SevError, e.Code, "%s", e.Msg)
}

func (c *checker) run() {
	d := c.d
	if len(d.Schemas) == 0 {
		c.report(Pos{}, SevError, "component-missing", "descriptor has no schema sections")
	}
	if d.Storage == nil {
		c.report(Pos{}, SevError, "component-missing", "descriptor has no storage description")
	} else if d.TableSchema() == nil {
		c.report(d.Storage.Pos, SevError, "schema-unknown", "storage [%s] references unknown schema %q",
			d.Storage.DatasetName, d.Storage.SchemaName)
	}
	c.checkReplicaSets()
	if d.Layout == nil {
		c.report(Pos{}, SevError, "component-missing", "descriptor has no layout description")
		return
	}
	c.walkNode(d.Layout, "", nil, nil)
	if c.spaceLeaf != nil && c.chunkedLeaf != nil {
		later := c.spaceLeaf
		if later.Pos.Line < c.chunkedLeaf.Pos.Line {
			later = c.chunkedLeaf
		}
		c.report(later.Pos, SevError, "leaf-shape",
			"dataset %q: descriptor mixes DATASPACE and CHUNKED leaves; use one style per dataset", later.Name)
	}
	c.checkDims()
	c.checkUnboundSchemaAttrs()
	c.checkUnusedDirs()
}

// checkReplicaSets validates the storage description's DIR replica
// sets: a node listed twice in one set is an error (the coordinator
// would dispatch a failover leg back to the node that just failed),
// and a replica naming a node that is never any directory's primary
// is suspicious — such a node serves legs but owns no partition, so a
// typo here silently removes the redundancy the set was meant to add.
func (c *checker) checkReplicaSets() {
	st := c.d.Storage
	if st == nil {
		return
	}
	primaries := map[string]bool{}
	for _, e := range st.Dirs {
		primaries[e.Node] = true
	}
	for _, e := range st.Dirs {
		set := e.ReplicaNodes()
		if len(set) < 2 {
			continue
		}
		seen := map[string]bool{}
		for _, n := range set {
			if seen[n] {
				c.report(e.Pos, SevError, "replica-dup",
					"storage [%s]: DIR[%d] lists node %q twice in its replica set",
					st.DatasetName, e.Index, n)
				continue
			}
			seen[n] = true
			if !primaries[n] {
				c.report(e.Pos, SevWarning, "replica-unknown",
					"storage [%s]: DIR[%d] replica set names node %q, which is not the primary node of any storage directory",
					st.DatasetName, e.Index, n)
			}
		}
	}
}

// walkNode descends the layout tree carrying the inherited type name,
// DATATYPE extras and DATAINDEX list.
func (c *checker) walkNode(n *DatasetNode, typeName string, inherited []schema.Attribute, indexAttrs []string) {
	switch {
	case n.Name == "":
		c.report(n.Pos, SevError, "dataset-name", "dataset with empty name")
	case c.names[n.Name]:
		c.report(n.Pos, SevError, "dataset-name", "duplicate dataset name %q", n.Name)
	}
	c.names[n.Name] = true
	if n.TypeName != "" {
		typeName = n.TypeName
	}
	if len(n.IndexAttrs) > 0 {
		indexAttrs = n.IndexAttrs
	}
	table := c.attrTable(n, typeName, inherited)
	for _, a := range n.IndexAttrs {
		c.referenced[a] = true
	}

	if !n.IsLeaf() {
		if n.Space != nil || len(n.Chunked) > 0 || len(n.Files) > 0 || len(n.IndexFiles) > 0 {
			c.report(n.Pos, SevError, "leaf-shape", "dataset %q has both children and leaf clauses", n.Name)
		}
		extras := append(inherited[:len(inherited):len(inherited)], n.ExtraAttrs...)
		for _, ch := range n.Children {
			c.walkNode(ch, typeName, extras, indexAttrs)
		}
	} else {
		c.checkLeaf(n, table, indexAttrs)
	}
	c.checkUnusedExtras(n)
}

// attrTable resolves the attribute table visible inside n, reporting an
// unknown or missing DATATYPE and any DATATYPE extra that redeclares an
// attribute with a different kind — that would change the attribute's
// on-disk width mid-tree. It returns nil when the schema is unknown.
func (c *checker) attrTable(n *DatasetNode, typeName string, inherited []schema.Attribute) map[string]schema.Kind {
	sch := c.d.Schema(typeName)
	switch {
	case n.TypeName != "" && sch == nil:
		c.report(n.Pos, SevError, "schema-unknown", "dataset %q references unknown schema %q", n.Name, n.TypeName)
	case typeName == "" && n == c.d.Layout:
		c.report(n.Pos, SevError, "schema-unknown", "dataset %q has no DATATYPE (own or inherited)", n.Name)
	}
	table := map[string]schema.Kind{}
	if sch != nil {
		for _, a := range sch.Attrs() {
			table[a.Name] = a.Kind
		}
	}
	for _, a := range inherited {
		table[a.Name] = a.Kind
	}
	for i, a := range n.ExtraAttrs {
		if prev, ok := table[a.Name]; ok && prev != a.Kind {
			by := fmt.Sprintf("schema [%s]", typeName)
			if declares(n.ExtraAttrs[:i], a.Name) {
				by = fmt.Sprintf("DATATYPE of dataset %q", n.Name)
			} else if declares(inherited, a.Name) {
				by = "an enclosing DATATYPE"
			}
			c.report(n.Pos, SevError, "type-conflict",
				"dataset %q: DATATYPE redeclares %q as %s (%d bytes) but %s declares it as %s (%d bytes)",
				n.Name, a.Name, a.Kind, a.Kind.Size(), by, prev, prev.Size())
		}
		table[a.Name] = a.Kind
	}
	if sch == nil {
		return nil // attribute names unresolvable below here
	}
	return table
}

// declares reports whether attrs declares name.
func declares(attrs []schema.Attribute, name string) bool {
	for _, a := range attrs {
		if a.Name == name {
			return true
		}
	}
	return false
}

// checkLeaf runs every per-leaf pass: leaf shape, clause expansion
// (dir-range, file-clause, file-budget, file-overlap, index pairing,
// dims), span overlap, loop checks, and DATAINDEX resolution.
func (c *checker) checkLeaf(n *DatasetNode, table map[string]schema.Kind, indexAttrs []string) {
	if len(n.Files) == 0 {
		c.report(n.Pos, SevError, "leaf-shape", "leaf dataset %q has no DATA file clauses", n.Name)
	}
	switch {
	case n.Space != nil && len(n.Chunked) > 0:
		c.report(n.Pos, SevError, "leaf-shape", "dataset %q has both DATASPACE and CHUNKED", n.Name)
	case n.Space == nil && len(n.Chunked) == 0:
		c.report(n.Pos, SevError, "leaf-shape", "leaf dataset %q has neither DATASPACE nor CHUNKED", n.Name)
	case n.Space != nil && c.spaceLeaf == nil:
		c.spaceLeaf = n
	case len(n.Chunked) > 0 && c.chunkedLeaf == nil:
		c.chunkedLeaf = n
	}
	if len(n.Chunked) > 0 {
		c.checkChunked(n, table, indexAttrs)
	} else if len(n.IndexFiles) > 0 {
		c.report(n.Pos, SevError, "leaf-shape", "dataset %q has INDEXFILE but no CHUNKED layout", n.Name)
	}

	bindingVars := map[string]Pos{}
	files, filesOK := c.expandClauses(n, n.Files, bindingVars, "DATA")
	index, indexOK := c.expandClauses(n, n.IndexFiles, bindingVars, "INDEXFILE")
	if len(n.Chunked) > 0 && filesOK && indexOK && len(n.IndexFiles) > 0 {
		if _, err := pairIndexFiles(n, files, index); err != nil {
			c.reportErr(err)
		}
	}
	for v := range bindingVars {
		c.bound[v] = true
	}

	if n.Space != nil {
		if len(n.Space.Items) == 0 {
			c.report(n.Pos, SevError, "leaf-shape", "dataset %q: empty DATASPACE", n.Name)
		}
		unbound := map[*Loop]bool{}
		c.checkSpaceItems(n, n.Space.Items, table, bindingVars, map[string]bool{}, map[string]Pos{}, unbound)
		envs := make([]Env, len(files))
		for i, f := range files {
			envs[i] = f.Env
		}
		if !filesOK || len(envs) == 0 {
			envs = []Env{{}}
		}
		reported := map[*Loop]bool{}
		for _, env := range envs {
			c.checkLoopExtents(n, n.Space.Items, env, filesOK, map[string]loopRange{}, unbound, reported)
		}
	}
	if table == nil {
		return
	}
	for _, a := range n.IndexAttrs {
		_, binds := bindingVars[a]
		if _, ok := table[a]; !ok && !binds && (n.Space == nil || !loopsOver(n.Space.Items, a)) {
			c.report(n.Pos, SevError, "attr-unknown", "dataset %q: DATAINDEX names unknown attribute %q", n.Name, a)
		}
	}
}

// loopsOver reports whether items loop over v at any depth.
func loopsOver(items []SpaceItem, v string) bool {
	for _, it := range items {
		if l, ok := it.(*Loop); ok && (l.Var == v || loopsOver(l.Body, v)) {
			return true
		}
	}
	return false
}

// checkChunked checks a CHUNKED leaf's record and index declarations.
func (c *checker) checkChunked(n *DatasetNode, table map[string]schema.Kind, indexAttrs []string) {
	if len(n.IndexFiles) == 0 {
		c.report(n.Pos, SevError, "leaf-shape", "chunked dataset %q has no INDEXFILE", n.Name)
	}
	if len(indexAttrs) == 0 {
		c.report(n.Pos, SevError, "leaf-shape", "chunked dataset %q has no DATAINDEX (own or inherited)", n.Name)
	}
	inRecord := map[string]bool{}
	for _, a := range n.Chunked {
		c.bound[a] = true
		if inRecord[a] {
			c.report(n.Pos, SevError, "span-overlap", "dataset %q: CHUNKED lists attribute %q twice", n.Name, a)
		}
		inRecord[a] = true
		if _, ok := table[a]; !ok && table != nil {
			c.report(n.Pos, SevError, "attr-unknown", "dataset %q: CHUNKED names unknown attribute %q", n.Name, a)
		}
	}
	for _, a := range indexAttrs {
		if !inRecord[a] {
			c.report(n.Pos, SevError, "attr-unknown",
				"chunked dataset %q: DATAINDEX attribute %q is not in the CHUNKED record", n.Name, a)
		}
	}
}

// expandClauses checks a leaf's DATA or INDEXFILE clauses and expands
// them within the descriptor's file budget, recording binding
// variables, binding extents, used directories, and files two clauses
// both produce. ok is false when some clause was not fully expanded.
func (c *checker) expandClauses(n *DatasetNode, clauses []FileClause, bindingVars map[string]Pos, kind string) (files []FileInstance, ok bool) {
	ok = true
	for i := range clauses {
		fc := &clauses[i]
		for _, b := range fc.Bindings {
			if _, dup := bindingVars[b.Var]; !dup {
				bindingVars[b.Var] = b.Pos
			}
		}
		if !c.checkClauseVars(n, fc) || c.d.Storage == nil || c.files > maxFiles {
			ok = false
			continue
		}
		insts, err := expandClause(c.d.Storage, n, fc, maxFiles-c.files)
		if err != nil {
			c.reportErr(err)
			if err.(*Error).Code == "file-budget" {
				c.files = maxFiles + 1 // one budget error is enough
			}
			ok = false
			continue
		}
		c.files += len(insts)
		overlap := false
		for _, inst := range insts {
			c.usedDirs[inst.DirIndex] = true
			for _, b := range fc.Bindings {
				r, _ := evalRange(b.Lo, b.Hi, b.Step, inst.Env)
				c.addDim("binding", b.Var, n, (r[1]-r[0])/r[2]+1, b.Pos)
			}
			file := inst.String()
			if prev, dup := c.seenFiles[kind+" "+file]; !dup {
				c.seenFiles[kind+" "+file] = fc.Pos
			} else if !overlap { // one report per clause
				c.report(fc.Pos, SevError, "file-overlap",
					"dataset %q: %s clause produces file %s already produced by the clause at %s",
					n.Name, kind, file, prev)
				overlap = true
			}
		}
		files = append(files, insts...)
	}
	if !ok {
		c.dirsUnknowable = true
	}
	return files, ok
}

// checkClauseVars checks a clause's variables: no variable bound twice,
// binding bounds that reference only earlier bindings, and templates
// that use only bound variables.
func (c *checker) checkClauseVars(n *DatasetNode, fc *FileClause) bool {
	ok := true
	earlier := map[string]bool{}
	for _, b := range fc.Bindings {
		if earlier[b.Var] {
			c.report(b.Pos, SevError, "var-unbound", "dataset %q: duplicate binding for %q in file clause", n.Name, b.Var)
			ok = false
		}
		for _, v := range exprVarsSorted(b.Lo, b.Hi, b.Step) {
			if !earlier[v] {
				c.report(b.Pos, SevError, "var-unbound", "dataset %q: binding %s uses variable $%s not bound earlier in the clause", n.Name, b.Var, v)
				ok = false
			}
		}
		earlier[b.Var] = true
	}
	for _, v := range fc.Vars() {
		if !earlier[v] {
			c.report(fc.Pos, SevError, "var-unbound", "dataset %q: file template uses unbound variable $%s", n.Name, v)
			ok = false
		}
	}
	return ok
}

// checkSpaceItems walks one dataspace level: records bound attributes,
// flags duplicates (overlapping spans), unknown attributes, shadowing,
// loop/binding variable collisions, loop bounds using variables no
// file clause binds (collected in unbound), and empty loop bodies.
func (c *checker) checkSpaceItems(n *DatasetNode, items []SpaceItem, table map[string]schema.Kind, bindingVars map[string]Pos, enclosing map[string]bool, seenAttr map[string]Pos, unbound map[*Loop]bool) {
	for _, it := range items {
		switch item := it.(type) {
		case AttrRef:
			c.bound[item.Name] = true
			if prev, ok := seenAttr[item.Name]; ok {
				c.report(item.Pos, SevError, "span-overlap",
					"dataset %q: attribute %q laid out twice in DATASPACE (first at %s) — overlapping DATA spans",
					n.Name, item.Name, prev)
			} else {
				seenAttr[item.Name] = item.Pos
			}
			if _, ok := table[item.Name]; !ok && table != nil {
				c.report(item.Pos, SevError, "attr-unknown",
					"dataset %q: DATASPACE names unknown attribute %q", n.Name, item.Name)
			}
		case *Loop:
			c.bound[item.Var] = true
			if enclosing[item.Var] {
				c.report(item.Pos, SevError, "loop-var", "dataset %q: loop variable %q shadows an enclosing loop", n.Name, item.Var)
			}
			if k, isAttr := table[item.Var]; isAttr && !k.Integral() {
				c.report(item.Pos, SevError, "loop-var", "dataset %q: loop variable %q matches non-integral attribute", n.Name, item.Var)
			}
			if bpos, ok := bindingVars[item.Var]; ok {
				c.report(item.Pos, SevError, "loop-extent",
					"dataset %q: LOOP variable %q is also bound by the file clause at %s — the loop and the binding would iterate it independently",
					n.Name, item.Var, bpos)
			}
			for _, v := range exprVarsSorted(item.Lo, item.Hi, item.Step) {
				if _, ok := bindingVars[v]; !ok {
					c.report(item.Pos, SevError, "var-unbound", "dataset %q: loop bound uses unbound variable $%s", n.Name, v)
					unbound[item] = true
				}
			}
			if len(item.Body) == 0 {
				c.report(item.Pos, SevError, "leaf-shape", "dataset %q: empty LOOP %s body", n.Name, item.Var)
			}
			shadowed := enclosing[item.Var]
			enclosing[item.Var] = true
			c.checkSpaceItems(n, item.Body, table, bindingVars, enclosing, seenAttr, unbound)
			enclosing[item.Var] = shadowed
		}
	}
}

// checkLoopExtents evaluates the loop bounds under one data file's
// environment, as the layout compiler will: every loop must give a
// positive step and a non-empty range, and a variable looped twice
// must iterate the same range. The extents feed the cross-leaf
// dimension-consistency pass. Each loop is reported at most once;
// evaluation failures are reported only when every file was expanded
// (otherwise env is a stand-in) and the bound is not already known to
// use an unbound variable.
func (c *checker) checkLoopExtents(n *DatasetNode, items []SpaceItem, env Env, complete bool, seen map[string]loopRange, unbound, reported map[*Loop]bool) {
	for _, it := range items {
		l, ok := it.(*Loop)
		if !ok {
			continue
		}
		r, err := evalRange(l.Lo, l.Hi, l.Step, env)
		prev, looped := seen[l.Var]
		switch {
		case reported[l]:
		case err != nil:
			if complete && !unbound[l] {
				c.report(l.Pos, SevError, "loop-extent", "dataset %q: LOOP %s bounds: %v", n.Name, l.Var, err)
				reported[l] = true
			}
		case r[2] <= 0:
			c.report(l.Pos, SevError, "loop-extent", "dataset %q: LOOP %s has non-positive step %d", n.Name, l.Var, r[2])
			reported[l] = true
		case r[0] > r[1]:
			c.report(l.Pos, SevError, "loop-extent", "dataset %q: LOOP %s has empty range %d:%d (zero extent)", n.Name, l.Var, r[0], r[1])
			reported[l] = true
		case looped && prev.r != r:
			c.report(l.Pos, SevError, "loop-extent",
				"dataset %q: LOOP %s iterates a different range than the LOOP %s at %s", n.Name, l.Var, l.Var, prev.pos)
			reported[l] = true
		default:
			seen[l.Var] = loopRange{r, l.Pos}
			c.addDim("LOOP", l.Var, n, (r[1]-r[0])/r[2]+1, l.Pos)
		}
		c.checkLoopExtents(n, l.Body, env, complete, seen, unbound, reported)
	}
}

// loopRange is a loop's evaluated lo:hi:step and where it is declared.
type loopRange struct {
	r   [3]int64
	pos Pos
}

// addDim records one observed iteration extent of v, declared by a
// LOOP or binding of dataset n.
func (c *checker) addDim(kind, v string, n *DatasetNode, extent int64, pos Pos) {
	for _, r := range c.dims[v] {
		if r.extent == extent && r.pos == pos {
			return
		}
	}
	c.dims[v] = append(c.dims[v], dimRec{extent, pos, fmt.Sprintf("%s %s in dataset %q", kind, v, n.Name)})
}

// checkDims reports variables whose iteration extent differs between
// declarations: the dataspace dimensions of aligned leaves disagree.
func (c *checker) checkDims() {
	vars := make([]string, 0, len(c.dims))
	for v := range c.dims {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		recs := c.dims[v]
		for _, r := range recs[1:] {
			if r.extent != recs[0].extent {
				c.report(r.pos, SevWarning, "dim-mismatch",
					"variable %q iterates %d values here (%s) but %d values at %s (%s)",
					v, r.extent, r.where, recs[0].extent, recs[0].pos, recs[0].where)
				break
			}
		}
	}
}

// checkUnusedExtras warns about DATATYPE extras nothing ever references.
// Called post-order, so by the time the root is checked every leaf has
// populated bound/referenced.
func (c *checker) checkUnusedExtras(n *DatasetNode) {
	for _, a := range n.ExtraAttrs {
		if !c.bound[a.Name] && !c.referenced[a.Name] {
			c.report(n.Pos, SevWarning, "attr-unused",
				"dataset %q: DATATYPE extra attribute %q is never laid out or indexed", n.Name, a.Name)
		}
	}
}

// checkUnboundSchemaAttrs warns about virtual-table attributes no leaf
// ever lays out: a query selecting them could never be answered — the
// layout leaves a gap.
func (c *checker) checkUnboundSchemaAttrs() {
	sch := c.d.TableSchema()
	if sch == nil {
		return
	}
	for _, a := range sch.Attrs() {
		if c.bound[a.Name] {
			continue
		}
		c.report(c.d.attrPos[sch.Name()+"."+a.Name], SevWarning, "attr-unbound",
			"schema [%s] attribute %q is never bound by any DATA clause, DATASPACE or LOOP — no file provides it",
			sch.Name(), a.Name)
	}
}

// checkUnusedDirs warns about storage directories no clause selects.
// Suppressed when any clause was not expanded (usage is unknowable).
func (c *checker) checkUnusedDirs() {
	st := c.d.Storage
	if st == nil || c.dirsUnknowable {
		return
	}
	for i, e := range st.Dirs {
		if !c.usedDirs[i] {
			c.report(e.Pos, SevWarning, "dir-unused",
				"storage directory DIR[%d] = %s is referenced by no layout block", i, e.Raw())
		}
	}
}
