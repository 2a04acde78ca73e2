package metadata

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"datavirt/internal/schema"
)

// XML embedding of the description language. The paper notes that "the
// description language we have developed can easily be embedded in an
// XML file and made machine independent" (§3.1); this file implements
// that embedding. The element structure mirrors the three components:
//
//	<descriptor>
//	  <schema name="IPARS">
//	    <attribute name="REL" type="short int"/> ...
//	  </schema>
//	  <storage dataset="IparsData" schema="IPARS">
//	    <dir index="0" node="osu0" path="ipars"/> ...
//	  </storage>
//	  <dataset name="IparsData">
//	    <datatype schema="IPARS"/>
//	    <dataindex attrs="REL TIME"/>
//	    <dataset name="ipars2">
//	      <dataspace>
//	        <loop var="TIME" lo="1" hi="500" step="1">
//	          <loop var="GRID" lo="($DIRID*100+1)" hi="(($DIRID+1)*100)">
//	            <attr name="SOIL"/> <attr name="SGAS"/>
//	          </loop>
//	        </loop>
//	      </dataspace>
//	      <data>
//	        <file dir="$DIRID" name="DATA$REL">
//	          <bind var="REL" lo="0" hi="3"/> <bind var="DIRID" lo="0" hi="3"/>
//	        </file>
//	      </data>
//	    </dataset>
//	  </dataset>
//	</descriptor>
//
// Loop bounds and dir selectors carry description-language expressions
// as text; ordered mixed content (attributes interleaved with loops)
// is preserved.

// ToXML renders the descriptor as an XML document.
func ToXML(d *Descriptor) (string, error) {
	var b strings.Builder
	b.WriteString(xml.Header)
	o := &xmlOut{enc: xml.NewEncoder(&b)}
	o.enc.Indent("", "  ")
	o.descriptor(d)
	if o.err == nil {
		o.err = o.enc.Flush()
	}
	if o.err != nil {
		return "", o.err
	}
	b.WriteByte('\n')
	return b.String(), nil
}

func elem(name string, attrs ...xml.Attr) xml.StartElement {
	return xml.StartElement{Name: xml.Name{Local: name}, Attr: attrs}
}

func attr(name, value string) xml.Attr {
	return xml.Attr{Name: xml.Name{Local: name}, Value: value}
}

// xmlOut encodes tokens and keeps the first error, so the encoder
// reads as the document it writes.
type xmlOut struct {
	enc *xml.Encoder
	err error
}

func (o *xmlOut) token(t xml.Token) {
	if o.err == nil {
		o.err = o.enc.EncodeToken(t)
	}
}

// open starts an element and returns its end token.
func (o *xmlOut) open(name string, attrs ...xml.Attr) xml.EndElement {
	se := elem(name, attrs...)
	o.token(se)
	return se.End()
}

// empty writes an element without content.
func (o *xmlOut) empty(name string, attrs ...xml.Attr) { o.token(o.open(name, attrs...)) }

func (o *xmlOut) descriptor(d *Descriptor) {
	end := o.open("descriptor")
	for _, s := range d.Schemas {
		se := o.open("schema", attr("name", s.Name()))
		for _, a := range s.Attrs() {
			o.empty("attribute", attr("name", a.Name), attr("type", a.Kind.String()))
		}
		o.token(se)
	}
	if d.Storage != nil {
		se := o.open("storage", attr("dataset", d.Storage.DatasetName), attr("schema", d.Storage.SchemaName))
		for _, dir := range d.Storage.Dirs {
			attrs := []xml.Attr{attr("index", fmt.Sprint(dir.Index)),
				attr("node", dir.Node), attr("path", dir.Path)}
			if len(dir.Nodes) > 1 {
				// Replica set: the node attribute stays the primary for
				// compatibility; nodes carries the full ordered set.
				attrs = append(attrs, attr("nodes", strings.Join(dir.Nodes, ",")))
			}
			o.empty("dir", attrs...)
		}
		o.token(se)
	}
	if d.Layout != nil {
		o.dataset(d.Layout)
	}
	o.token(end)
}

func (o *xmlOut) dataset(n *DatasetNode) {
	attrs := []xml.Attr{attr("name", n.Name)}
	if n.ByteOrder != "" {
		attrs = append(attrs, attr("byteorder", n.ByteOrder))
	}
	end := o.open("dataset", attrs...)
	if n.TypeName != "" || len(n.ExtraAttrs) > 0 {
		var attrs []xml.Attr
		if n.TypeName != "" {
			attrs = append(attrs, attr("schema", n.TypeName))
		}
		te := o.open("datatype", attrs...)
		for _, a := range n.ExtraAttrs {
			o.empty("attribute", attr("name", a.Name), attr("type", a.Kind.String()))
		}
		o.token(te)
	}
	if len(n.IndexAttrs) > 0 {
		o.empty("dataindex", attr("attrs", strings.Join(n.IndexAttrs, " ")))
	}
	if n.Space != nil {
		se := o.open("dataspace")
		o.spaceItems(n.Space.Items)
		o.token(se)
	}
	if len(n.Chunked) > 0 {
		o.empty("chunked", attr("attrs", strings.Join(n.Chunked, " ")))
	}
	for _, c := range n.Children {
		o.dataset(c)
	}
	o.fileBlock("data", n.Files)
	o.fileBlock("indexfile", n.IndexFiles)
	o.token(end)
}

func (o *xmlOut) fileBlock(name string, clauses []FileClause) {
	if len(clauses) == 0 {
		return
	}
	end := o.open(name)
	for i := range clauses {
		fc := &clauses[i]
		fe := o.open("file", attr("dir", fc.Dir.String()), attr("name", fc.NameString()))
		for _, bnd := range fc.Bindings {
			o.empty("bind", attr("var", bnd.Var), attr("lo", bnd.Lo.String()),
				attr("hi", bnd.Hi.String()), attr("step", bnd.Step.String()))
		}
		o.token(fe)
	}
	o.token(end)
}

func (o *xmlOut) spaceItems(items []SpaceItem) {
	for _, it := range items {
		switch v := it.(type) {
		case AttrRef:
			o.empty("attr", attr("name", v.Name))
		case *Loop:
			le := o.open("loop", attr("var", v.Var), attr("lo", v.Lo.String()),
				attr("hi", v.Hi.String()), attr("step", v.Step.String()))
			o.spaceItems(v.Body)
			o.token(le)
		}
	}
}

// ParseXML parses the XML embedding back into a validated descriptor.
func ParseXML(src string) (*Descriptor, error) {
	dec := xml.NewDecoder(strings.NewReader(src))
	d := &Descriptor{}
	rootSeen := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("metadata: xml: %w", err)
		}
		se, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch se.Name.Local {
		case "descriptor":
			rootSeen = true
		case "schema":
			s, err := decodeSchema(dec, se)
			if err != nil {
				return nil, err
			}
			d.Schemas = append(d.Schemas, s)
		case "storage":
			st, err := decodeStorage(dec, se)
			if err != nil {
				return nil, err
			}
			if d.Storage != nil {
				return nil, fmt.Errorf("metadata: xml: duplicate <storage>")
			}
			d.Storage = st
		case "dataset":
			if d.Layout != nil {
				return nil, fmt.Errorf("metadata: xml: multiple root <dataset> elements")
			}
			n, err := decodeDataset(dec, se)
			if err != nil {
				return nil, err
			}
			d.Layout = n
		default:
			if err := dec.Skip(); err != nil {
				return nil, err
			}
		}
	}
	if !rootSeen {
		return nil, fmt.Errorf("metadata: xml: no <descriptor> root element")
	}
	if err := Validate(d); err != nil {
		return nil, err
	}
	return d, nil
}

func attrOf(se xml.StartElement, name string) string {
	for _, a := range se.Attr {
		if a.Name.Local == name {
			return a.Value
		}
	}
	return ""
}

func decodeSchema(dec *xml.Decoder, se xml.StartElement) (*schema.Schema, error) {
	name := attrOf(se, "name")
	var attrs []schema.Attribute
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "attribute" {
				return nil, fmt.Errorf("metadata: xml: unexpected <%s> in <schema>", t.Name.Local)
			}
			k, err := schema.ParseKind(attrOf(t, "type"))
			if err != nil {
				return nil, err
			}
			attrs = append(attrs, schema.Attribute{Name: attrOf(t, "name"), Kind: k})
			if err := dec.Skip(); err != nil {
				return nil, err
			}
		case xml.EndElement:
			return schema.New(name, attrs)
		}
	}
}

func decodeStorage(dec *xml.Decoder, se xml.StartElement) (*Storage, error) {
	st := &Storage{
		DatasetName: attrOf(se, "dataset"),
		SchemaName:  attrOf(se, "schema"),
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "dir" {
				return nil, fmt.Errorf("metadata: xml: unexpected <%s> in <storage>", t.Name.Local)
			}
			var idx int
			if _, err := fmt.Sscanf(attrOf(t, "index"), "%d", &idx); err != nil {
				return nil, fmt.Errorf("metadata: xml: bad dir index %q", attrOf(t, "index"))
			}
			node := attrOf(t, "node")
			entry := DirEntry{Index: idx, Node: node, Path: attrOf(t, "path")}
			if list := attrOf(t, "nodes"); list != "" {
				for _, n := range strings.Split(list, ",") {
					n = strings.TrimSpace(n)
					if n == "" {
						return nil, fmt.Errorf("metadata: xml: <dir> has an empty node in its nodes list")
					}
					entry.Nodes = append(entry.Nodes, n)
				}
				entry.Node = entry.Nodes[0]
				if len(entry.Nodes) == 1 {
					entry.Nodes = nil
				}
				if node != "" && node != entry.Node {
					return nil, fmt.Errorf("metadata: xml: <dir> node %q is not the first of nodes %q", node, list)
				}
			} else if node == "" {
				return nil, fmt.Errorf("metadata: xml: <dir> without node")
			}
			st.Dirs = append(st.Dirs, entry)
			if err := dec.Skip(); err != nil {
				return nil, err
			}
		case xml.EndElement:
			if st.DatasetName == "" || st.SchemaName == "" {
				return nil, fmt.Errorf("metadata: xml: <storage> needs dataset and schema attributes")
			}
			if len(st.Dirs) == 0 {
				return nil, fmt.Errorf("metadata: xml: <storage> has no <dir> entries")
			}
			return st, orderDirs(st)
		}
	}
}

func xmlExpr(se xml.StartElement, name, dflt string) (Expr, error) {
	s := attrOf(se, name)
	if s == "" {
		if dflt == "" {
			return nil, fmt.Errorf("metadata: xml: <%s> missing %s attribute", se.Name.Local, name)
		}
		s = dflt
	}
	e, err := ParseExpr(s)
	if err != nil {
		return nil, fmt.Errorf("metadata: xml: %s=%q: %w", name, s, err)
	}
	return e, nil
}

func decodeDataset(dec *xml.Decoder, se xml.StartElement) (*DatasetNode, error) {
	n := &DatasetNode{Name: attrOf(se, "name")}
	if bo := strings.ToUpper(attrOf(se, "byteorder")); bo != "" {
		if bo != "BIG" && bo != "LITTLE" {
			return nil, fmt.Errorf("metadata: xml: byteorder must be BIG or LITTLE, got %q", bo)
		}
		n.ByteOrder = bo
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "datatype":
				n.TypeName = attrOf(t, "schema")
				extras, err := decodeTypeAttrs(dec)
				if err != nil {
					return nil, err
				}
				n.ExtraAttrs = extras
			case "dataindex":
				n.IndexAttrs = strings.Fields(attrOf(t, "attrs"))
				if err := dec.Skip(); err != nil {
					return nil, err
				}
			case "dataspace":
				items, err := decodeSpaceItems(dec)
				if err != nil {
					return nil, err
				}
				n.Space = &Dataspace{Items: items}
			case "chunked":
				n.Chunked = strings.Fields(attrOf(t, "attrs"))
				if err := dec.Skip(); err != nil {
					return nil, err
				}
			case "dataset":
				c, err := decodeDataset(dec, t)
				if err != nil {
					return nil, err
				}
				n.Children = append(n.Children, c)
			case "data":
				fcs, err := decodeFiles(dec)
				if err != nil {
					return nil, err
				}
				n.Files = append(n.Files, fcs...)
			case "indexfile":
				fcs, err := decodeFiles(dec)
				if err != nil {
					return nil, err
				}
				n.IndexFiles = append(n.IndexFiles, fcs...)
			default:
				return nil, fmt.Errorf("metadata: xml: unexpected <%s> in <dataset>", t.Name.Local)
			}
		case xml.EndElement:
			return n, nil
		}
	}
}

func decodeTypeAttrs(dec *xml.Decoder) ([]schema.Attribute, error) {
	var out []schema.Attribute
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "attribute" {
				return nil, fmt.Errorf("metadata: xml: unexpected <%s> in <datatype>", t.Name.Local)
			}
			k, err := schema.ParseKind(attrOf(t, "type"))
			if err != nil {
				return nil, err
			}
			out = append(out, schema.Attribute{Name: attrOf(t, "name"), Kind: k})
			if err := dec.Skip(); err != nil {
				return nil, err
			}
		case xml.EndElement:
			return out, nil
		}
	}
}

func decodeSpaceItems(dec *xml.Decoder) ([]SpaceItem, error) {
	var out []SpaceItem
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "attr":
				name := attrOf(t, "name")
				if name == "" {
					return nil, fmt.Errorf("metadata: xml: <attr> without name")
				}
				out = append(out, AttrRef{Name: name})
				if err := dec.Skip(); err != nil {
					return nil, err
				}
			case "loop":
				lo, err := xmlExpr(t, "lo", "")
				if err != nil {
					return nil, err
				}
				hi, err := xmlExpr(t, "hi", "")
				if err != nil {
					return nil, err
				}
				step, err := xmlExpr(t, "step", "1")
				if err != nil {
					return nil, err
				}
				body, err := decodeSpaceItems(dec)
				if err != nil {
					return nil, err
				}
				v := attrOf(t, "var")
				if v == "" {
					return nil, fmt.Errorf("metadata: xml: <loop> without var")
				}
				out = append(out, &Loop{Var: v, Lo: lo, Hi: hi, Step: step, Body: body})
			default:
				return nil, fmt.Errorf("metadata: xml: unexpected <%s> in <dataspace>", t.Name.Local)
			}
		case xml.EndElement:
			return out, nil
		}
	}
}

func decodeFiles(dec *xml.Decoder) ([]FileClause, error) {
	var out []FileClause
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "file" {
				return nil, fmt.Errorf("metadata: xml: unexpected <%s> in file block", t.Name.Local)
			}
			fc := FileClause{}
			dir, err := xmlExpr(t, "dir", "")
			if err != nil {
				return nil, err
			}
			fc.Dir = dir
			name, err := parseNameTemplate(attrOf(t, "name"))
			if err != nil {
				return nil, err
			}
			fc.Name = name
			binds, err := decodeBinds(dec)
			if err != nil {
				return nil, err
			}
			fc.Bindings = binds
			out = append(out, fc)
		case xml.EndElement:
			return out, nil
		}
	}
}

func decodeBinds(dec *xml.Decoder) ([]Binding, error) {
	var out []Binding
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "bind" {
				return nil, fmt.Errorf("metadata: xml: unexpected <%s> in <file>", t.Name.Local)
			}
			lo, err := xmlExpr(t, "lo", "")
			if err != nil {
				return nil, err
			}
			hi, err := xmlExpr(t, "hi", "")
			if err != nil {
				return nil, err
			}
			step, err := xmlExpr(t, "step", "1")
			if err != nil {
				return nil, err
			}
			v := attrOf(t, "var")
			if v == "" {
				return nil, fmt.Errorf("metadata: xml: <bind> without var")
			}
			out = append(out, Binding{Var: v, Lo: lo, Hi: hi, Step: step})
			if err := dec.Skip(); err != nil {
				return nil, err
			}
		case xml.EndElement:
			return out, nil
		}
	}
}

// parseNameTemplate parses a file-name template ("DATA$REL", "f.$I")
// into name parts.
func parseNameTemplate(s string) ([]NamePart, error) {
	if s == "" {
		return nil, fmt.Errorf("metadata: xml: <file> without name")
	}
	var out []NamePart
	for i := 0; i < len(s); {
		if s[i] == '$' {
			j := i + 1
			for j < len(s) && isIdentPart(s[j]) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("metadata: xml: dangling $ in name %q", s)
			}
			out = append(out, NamePart{Var: s[i+1 : j]})
			i = j
			continue
		}
		j := i
		for j < len(s) && s[j] != '$' {
			j++
		}
		out = append(out, NamePart{Lit: s[i:j]})
		i = j
	}
	return out, nil
}
