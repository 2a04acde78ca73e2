package metadata

import (
	"fmt"
	"strings"

	"datavirt/internal/schema"
)

// Pos locates a construct in the descriptor source (1-based line and
// column). The zero Pos means "position unknown" — descriptors built
// from the XML or BinX embeddings, or constructed programmatically,
// carry no positions. The pretty-printer ignores positions, so the
// print/re-parse fixpoint is unaffected by them.
type Pos struct {
	Line int
	Col  int
}

// IsValid reports whether the position was recorded.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Descriptor is a complete parsed meta-data descriptor: the three
// components of the description language.
type Descriptor struct {
	// Schemas holds the Component-I schema sections, in source order.
	Schemas []*schema.Schema
	// Storage is the Component-II storage description.
	Storage *Storage
	// Layout is the root DATASET block of Component III.
	Layout *DatasetNode

	// attrPos locates each schema attribute's line ("Schema.ATTR" →
	// position) in parsed source; nil for the XML and BinX embeddings.
	attrPos map[string]Pos
}

// Schema returns the named schema section, or nil.
func (d *Descriptor) Schema(name string) *schema.Schema {
	for _, s := range d.Schemas {
		if s.Name() == name {
			return s
		}
	}
	return nil
}

// TableSchema returns the schema the storage description binds the
// virtual table to (the DatasetDescription reference).
func (d *Descriptor) TableSchema() *schema.Schema {
	if d.Storage == nil {
		return nil
	}
	return d.Schema(d.Storage.SchemaName)
}

// Storage is Component II: the dataset name, the schema it realizes, and
// the ordered directory table DIR[0..n-1], each entry naming the cluster
// node holding it and the path on that node.
type Storage struct {
	DatasetName string // bracket header, e.g. [IparsData]
	SchemaName  string // DatasetDescription = IPARS
	Dirs        []DirEntry

	// Pos is the bracket header's source position (zero when unknown).
	Pos Pos
}

// DirEntry is one DIR[i] = node/path line, or its replicated form
// DIR[i] = NODES n1, n2, n3/path.
type DirEntry struct {
	Index int
	Node  string // first path component: the cluster node name
	Path  string // remainder: directory on that node

	// Nodes, when it has more than one entry, is the directory's full
	// replica set, primary first (Node == Nodes[0]): every named node
	// holds a copy of the directory's files under the primary's node
	// path, so a query leg for this directory may be served by any of
	// them. Nil or a single entry means the classic single-node form.
	Nodes []string

	// Pos is the DIR line's source position (zero when unknown).
	Pos Pos
}

// ReplicaNodes returns the directory's full replica set, primary
// first. Entries without a NODES list yield just the primary node.
func (e DirEntry) ReplicaNodes() []string {
	if len(e.Nodes) > 0 {
		return e.Nodes
	}
	return []string{e.Node}
}

// Raw renders the entry's right-hand side.
func (e DirEntry) Raw() string {
	if len(e.Nodes) > 1 {
		s := "NODES " + strings.Join(e.Nodes, ", ")
		if e.Path == "" {
			return s
		}
		return s + "/" + e.Path
	}
	if e.Path == "" {
		return e.Node
	}
	return e.Node + "/" + e.Path
}

// DatasetNode is one DATASET block of Component III. A node is either a
// non-leaf (Children non-empty) or a leaf holding actual files. A leaf
// has exactly one of:
//
//   - Space: a regular nested-loop DATASPACE layout, or
//   - Chunked: a variable-length chunked layout whose chunk directory
//     (offset, row count, bounding box) lives in external INDEXFILEs.
type DatasetNode struct {
	Name string

	// TypeName references a Component-I schema (DATATYPE { IPARS }).
	// Empty on nodes that inherit the parent's type.
	TypeName string
	// ExtraAttrs are additional attributes declared inline in DATATYPE
	// that are not part of the referenced schema.
	ExtraAttrs []schema.Attribute

	// IndexAttrs lists the attributes usable for indexed subsetting
	// (DATAINDEX { REL TIME }).
	IndexAttrs []string

	// ByteOrder is "", "LITTLE" (the default) or "BIG": the numeric
	// encoding of this dataset's files (BYTEORDER { BIG }). Inherited by
	// children that leave it empty.
	ByteOrder string

	// Children holds nested datasets (non-leaf nodes).
	Children []*DatasetNode

	// Space is the DATASPACE loop nest (regular leaf).
	Space *Dataspace
	// Chunked is the per-record attribute order of a chunked leaf.
	Chunked []string

	// Files lists the DATA file clauses of a leaf.
	Files []FileClause
	// IndexFiles lists INDEXFILE clauses pairing index files with data
	// files of a chunked leaf.
	IndexFiles []FileClause

	// Pos is the Dataset keyword's source position (zero when unknown).
	Pos Pos
}

// IsLeaf reports whether the node holds files rather than children.
func (n *DatasetNode) IsLeaf() bool { return len(n.Children) == 0 }

// Dataspace is the body of a DATASPACE block: an ordered list of items.
type Dataspace struct {
	Items []SpaceItem
}

// SpaceItem is an element of a dataspace body: either a Loop or an
// AttrRef.
type SpaceItem interface {
	spaceItem()
	printTo(b *strings.Builder, indent string)
}

// Loop is LOOP VAR lo:hi:step { body }. Bounds are inclusive; step must
// evaluate to a positive integer.
type Loop struct {
	Var          string
	Lo, Hi, Step Expr
	Body         []SpaceItem

	// Pos is the LOOP keyword's source position (zero when unknown).
	Pos Pos
}

func (*Loop) spaceItem() {}

func (l *Loop) printTo(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%sLOOP %s %s:%s:%s {\n", indent, l.Var, l.Lo, l.Hi, l.Step)
	for _, it := range l.Body {
		it.printTo(b, indent+"  ")
	}
	fmt.Fprintf(b, "%s}\n", indent)
}

// AttrRef names an attribute stored at this position of the loop body.
type AttrRef struct {
	Name string

	// Pos is the reference's source position (zero when unknown).
	Pos Pos
}

func (AttrRef) spaceItem() {}

func (a AttrRef) printTo(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%s%s\n", indent, a.Name)
}

// FileClause is one file template of a DATA or INDEXFILE block, e.g.
//
//	DIR[$DIRID]/DATA$REL  REL = 0:3:1  DIRID = 0:3:1
//
// Dir selects the storage directory (index into Storage.Dirs); Name is
// the file name template; Bindings give the ranges of the template's
// free variables. Expanding the bindings enumerates concrete files, each
// carrying its variable assignment as implicit attributes.
type FileClause struct {
	Dir      Expr
	Name     []NamePart
	Bindings []Binding

	// Pos is the DIR keyword's source position (zero when unknown).
	Pos Pos
}

// NamePart is a literal or variable piece of a file-name template.
type NamePart struct {
	Lit string // literal text, when Var is empty
	Var string // variable reference, when non-empty
}

// Binding is VAR = lo:hi:step.
type Binding struct {
	Var          string
	Lo, Hi, Step Expr

	// Pos is the variable's source position (zero when unknown).
	Pos Pos
}

// Vars returns the distinct free variables of the clause's templates, in
// sorted order.
func (f *FileClause) Vars() []string {
	exprs := []Expr{f.Dir}
	for _, p := range f.Name {
		if p.Var != "" {
			exprs = append(exprs, VarExpr{p.Var})
		}
	}
	return exprVarsSorted(exprs...)
}

// NameString renders the file-name template.
func (f *FileClause) NameString() string {
	var b strings.Builder
	for _, p := range f.Name {
		if p.Var != "" {
			b.WriteByte('$')
			b.WriteString(p.Var)
		} else {
			b.WriteString(p.Lit)
		}
	}
	return b.String()
}

// String renders the clause in descriptor syntax.
func (f *FileClause) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DIR[%s]/%s", f.Dir, f.NameString())
	for _, bind := range f.Bindings {
		fmt.Fprintf(&b, " %s = %s:%s:%s", bind.Var, bind.Lo, bind.Hi, bind.Step)
	}
	return b.String()
}

// String renders the whole descriptor in description-language syntax.
// The output re-parses to an equivalent descriptor (tested).
func (d *Descriptor) String() string {
	var b strings.Builder
	for _, s := range d.Schemas {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	if d.Storage != nil {
		fmt.Fprintf(&b, "[%s]\n", d.Storage.DatasetName)
		fmt.Fprintf(&b, "DatasetDescription = %s\n", d.Storage.SchemaName)
		for _, e := range d.Storage.Dirs {
			fmt.Fprintf(&b, "DIR[%d] = %s\n", e.Index, e.Raw())
		}
		b.WriteByte('\n')
	}
	if d.Layout != nil {
		d.Layout.printTo(&b, "")
	}
	return b.String()
}

func (n *DatasetNode) printTo(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%sDataset %q {\n", indent, n.Name)
	in := indent + "  "
	if n.TypeName != "" || len(n.ExtraAttrs) > 0 {
		fmt.Fprintf(b, "%sDATATYPE { %s", in, n.TypeName)
		for _, a := range n.ExtraAttrs {
			fmt.Fprintf(b, " %s = %s", a.Name, a.Kind)
		}
		fmt.Fprintf(b, " }\n")
	}
	if len(n.IndexAttrs) > 0 {
		fmt.Fprintf(b, "%sDATAINDEX { %s }\n", in, strings.Join(n.IndexAttrs, " "))
	}
	if n.ByteOrder != "" {
		fmt.Fprintf(b, "%sBYTEORDER { %s }\n", in, n.ByteOrder)
	}
	if n.Space != nil {
		fmt.Fprintf(b, "%sDATASPACE {\n", in)
		for _, it := range n.Space.Items {
			it.printTo(b, in+"  ")
		}
		fmt.Fprintf(b, "%s}\n", in)
	}
	if len(n.Chunked) > 0 {
		fmt.Fprintf(b, "%sCHUNKED { %s }\n", in, strings.Join(n.Chunked, " "))
	}
	if len(n.Children) > 0 {
		fmt.Fprintf(b, "%sDATA {\n", in)
		for _, c := range n.Children {
			c.printTo(b, in+"  ")
		}
		fmt.Fprintf(b, "%s}\n", in)
	}
	if len(n.Files) > 0 {
		fmt.Fprintf(b, "%sDATA {", in)
		for _, f := range n.Files {
			fmt.Fprintf(b, " %s", f.String())
		}
		fmt.Fprintf(b, " }\n")
	}
	if len(n.IndexFiles) > 0 {
		fmt.Fprintf(b, "%sINDEXFILE {", in)
		for _, f := range n.IndexFiles {
			fmt.Fprintf(b, " %s", f.String())
		}
		fmt.Fprintf(b, " }\n")
	}
	fmt.Fprintf(b, "%s}\n", indent)
}

// Leaves appends all leaf datasets under n (including n itself if leaf)
// to dst in document order.
func (n *DatasetNode) Leaves(dst []*DatasetNode) []*DatasetNode {
	if n.IsLeaf() {
		return append(dst, n)
	}
	for _, c := range n.Children {
		dst = c.Leaves(dst)
	}
	return dst
}
