package metadata

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"datavirt/internal/schema"
)

// Parse parses a complete three-component descriptor. The source holds
// the Component-I schema sections and the Component-II storage section
// (both bracket-headed, line oriented), followed by the Component-III
// layout description (the root "Dataset" block). The result is
// validated: see Check for the rules enforced.
func Parse(src string) (*Descriptor, error) {
	d, err := ParseUnvalidated(src)
	if err != nil {
		return nil, err
	}
	if err := Validate(d); err != nil {
		return nil, err
	}
	return d, nil
}

// ParseUnvalidated parses the descriptor syntax without running
// Validate. The static checker (internal/metadata/lint) uses it to
// report every Check diagnostic instead of failing at the first error.
// Everyone else should call Parse.
func ParseUnvalidated(src string) (*Descriptor, error) {
	clean := schema.StripComments(src)
	head, tail := splitLayout(clean)

	d := &Descriptor{}
	if err := parseHeadSections(head, d); err != nil {
		return nil, err
	}
	if strings.TrimSpace(tail) == "" {
		return nil, fmt.Errorf("metadata: missing Component III (no Dataset block found)")
	}
	// The tail starts mid-file: keep token positions absolute.
	toks, err := lex(tail, 1+strings.Count(head, "\n"))
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	root, err := p.parseDataset()
	if err != nil {
		return nil, err
	}
	if !p.peek().isEOF() {
		return nil, p.errf("unexpected input after root Dataset block: %s", p.peek())
	}
	d.Layout = root
	return d, nil
}

// ParseFile reads and parses the descriptor at path. Both the text form
// and the XML embedding are accepted; XML is detected by a leading
// "<?xml" or "<descriptor" tag.
func ParseFile(path string) (*Descriptor, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("metadata: %v", err)
	}
	src := string(b)
	var d *Descriptor
	switch {
	case IsBinX(src):
		d, err = FromBinX(src)
	case IsXML(src):
		d, err = ParseXML(src)
	default:
		d, err = Parse(src)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// IsXML reports whether the source looks like the XML embedding.
func IsXML(src string) bool {
	s := strings.TrimSpace(src)
	return strings.HasPrefix(s, "<?xml") || strings.HasPrefix(s, "<descriptor")
}

// IsBinX reports whether the source looks like a BinX document.
func IsBinX(src string) bool {
	s := strings.TrimSpace(src)
	if strings.HasPrefix(s, "<?xml") {
		if i := strings.Index(s, "?>"); i >= 0 {
			s = strings.TrimSpace(s[i+2:])
		}
	}
	return strings.HasPrefix(s, "<binx")
}

// splitLayout splits comment-stripped source into the line-oriented head
// (Components I and II) and the token-oriented layout tail (Component
// III), which begins at the first `Dataset "..."` occurrence.
// The scan is byte-wise and ASCII-case-insensitive: lowercasing the
// whole source would desynchronize byte offsets on multi-byte runes.
func splitLayout(src string) (head, tail string) {
	const kw = "dataset"
	for i := 0; i+len(kw) <= len(src); i++ {
		if !strings.EqualFold(src[i:i+len(kw)], kw) {
			continue
		}
		// Must sit on a word boundary and be followed by a quoted name.
		if i > 0 && isIdentPart(src[i-1]) {
			continue
		}
		j := i + len(kw)
		if j < len(src) && isIdentPart(src[j]) {
			continue
		}
		for j < len(src) && (src[j] == ' ' || src[j] == '\t' || src[j] == '\n' || src[j] == '\r') {
			j++
		}
		if j < len(src) && src[j] == '"' {
			return src[:i], src[i:]
		}
	}
	return src, ""
}

// headLine is one non-empty section line plus its 1-based file line
// and the column its text starts at.
type headLine struct {
	text      string
	line, col int
}

// parseHeadSections parses the bracket-headed sections before the layout
// block. A section containing a DatasetDescription key is the storage
// description; all others are schema sections.
func parseHeadSections(head string, d *Descriptor) error {
	type section struct {
		name  string
		lines []headLine
		line  int
	}
	var secs []section
	for lineno, raw := range strings.Split(head, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]") {
			secs = append(secs, section{name: strings.TrimSpace(line[1 : len(line)-1]), line: lineno + 1})
			continue
		}
		if len(secs) == 0 {
			return fmt.Errorf("metadata: line %d: content before first [section]", lineno+1)
		}
		col := len(raw) - len(strings.TrimLeft(raw, " \t")) + 1
		secs[len(secs)-1].lines = append(secs[len(secs)-1].lines, headLine{text: line, line: lineno + 1, col: col})
	}
	for _, sec := range secs {
		if isStorageSection(sec.lines) {
			if d.Storage != nil {
				return fmt.Errorf("metadata: duplicate storage description [%s]", sec.name)
			}
			st, err := parseStorage(sec.name, sec.line, sec.lines)
			if err != nil {
				return err
			}
			d.Storage = st
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "[%s]\n", sec.name)
		for _, l := range sec.lines {
			b.WriteString(l.text)
			b.WriteByte('\n')
			if name, _, ok := strings.Cut(l.text, "="); ok {
				if d.attrPos == nil {
					d.attrPos = map[string]Pos{}
				}
				d.attrPos[sec.name+"."+strings.TrimSpace(name)] = Pos{Line: l.line, Col: l.col}
			}
		}
		ss, err := schema.ParseSchemas(b.String())
		if err != nil {
			return err
		}
		d.Schemas = append(d.Schemas, ss...)
	}
	return nil
}

func isStorageSection(lines []headLine) bool {
	for _, l := range lines {
		key, _, ok := strings.Cut(l.text, "=")
		if ok && strings.EqualFold(strings.TrimSpace(key), "DatasetDescription") {
			return true
		}
	}
	return false
}

func parseStorage(name string, headerLine int, lines []headLine) (*Storage, error) {
	st := &Storage{DatasetName: name, Pos: Pos{Line: headerLine, Col: 1}}
	seen := map[int]bool{}
	for _, hl := range lines {
		l := hl.text
		key, val, ok := strings.Cut(l, "=")
		if !ok {
			return nil, fmt.Errorf("metadata: storage [%s]: malformed line %q", name, l)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if strings.EqualFold(key, "DatasetDescription") {
			if st.SchemaName != "" {
				return nil, fmt.Errorf("metadata: storage [%s]: duplicate DatasetDescription", name)
			}
			st.SchemaName = val
			continue
		}
		upper := strings.ToUpper(key)
		if strings.HasPrefix(upper, "DIR[") && strings.HasSuffix(upper, "]") {
			idxText := key[4 : len(key)-1]
			idx, err := strconv.Atoi(strings.TrimSpace(idxText))
			if err != nil || idx < 0 {
				return nil, fmt.Errorf("metadata: storage [%s]: bad DIR index %q", name, idxText)
			}
			if seen[idx] {
				return nil, fmt.Errorf("metadata: storage [%s]: duplicate DIR[%d]", name, idx)
			}
			seen[idx] = true
			entry := DirEntry{Index: idx, Pos: Pos{Line: hl.line, Col: 1}}
			if rest, replicated := cutNodesKeyword(val); replicated {
				// Replica form: NODES n1, n2, n3/path. Duplicate or
				// otherwise suspicious replica names are accepted here so
				// the lint checker can report them with positions; only
				// emptiness is a parse error.
				list, path, _ := strings.Cut(rest, "/")
				for _, n := range strings.Split(list, ",") {
					n = strings.TrimSpace(n)
					if n == "" {
						return nil, fmt.Errorf("metadata: storage [%s]: DIR[%d] has an empty node in its NODES list", name, idx)
					}
					entry.Nodes = append(entry.Nodes, n)
				}
				entry.Node = entry.Nodes[0]
				entry.Path = strings.TrimSpace(path)
				if len(entry.Nodes) == 1 {
					entry.Nodes = nil // degenerate NODES list: single-node form
				}
			} else {
				node, path, _ := strings.Cut(val, "/")
				if node == "" {
					return nil, fmt.Errorf("metadata: storage [%s]: DIR[%d] has empty node", name, idx)
				}
				entry.Node, entry.Path = node, path
			}
			st.Dirs = append(st.Dirs, entry)
			continue
		}
		return nil, fmt.Errorf("metadata: storage [%s]: unknown key %q", name, key)
	}
	if st.SchemaName == "" {
		return nil, fmt.Errorf("metadata: storage [%s]: missing DatasetDescription", name)
	}
	if len(st.Dirs) == 0 {
		return nil, fmt.Errorf("metadata: storage [%s]: no DIR entries", name)
	}
	return st, orderDirs(st)
}

// orderDirs puts st.Dirs in index order, requiring the contiguous index
// set 0..n-1.
func orderDirs(st *Storage) error {
	for want := range st.Dirs {
		found := -1
		for i := range st.Dirs {
			if st.Dirs[i].Index == want {
				found = i
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("metadata: storage [%s]: DIR indices must be contiguous from 0; missing DIR[%d]", st.DatasetName, want)
		}
		st.Dirs[want], st.Dirs[found] = st.Dirs[found], st.Dirs[want]
	}
	return nil
}

// cutNodesKeyword detects the replica form of a DIR value: a
// case-insensitive NODES keyword followed by whitespace. It returns
// the remainder (the comma-separated node list and optional /path).
// A value like "NODES/data" is NOT the replica form — it is a single
// node that happens to be named NODES.
func cutNodesKeyword(val string) (string, bool) {
	const kw = "NODES"
	if len(val) <= len(kw) || !strings.EqualFold(val[:len(kw)], kw) {
		return "", false
	}
	if c := val[len(kw)]; c != ' ' && c != '\t' {
		return "", false
	}
	return strings.TrimSpace(val[len(kw):]), true
}

// parser consumes the token stream of Component III.
type parser struct {
	toks []token
	pos  int
}

func (t token) isEOF() bool { return t.Kind == tokEOF }

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) peekAt(n int) token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.Kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("metadata: line %d: %s", p.peek().Line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(c string) error {
	if !p.peek().isPunct(c) {
		return p.errf("expected %q, got %s", c, p.peek())
	}
	p.next()
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.peek().isKeyword(kw) {
		return p.errf("expected %s, got %s", kw, p.peek())
	}
	p.next()
	return nil
}

// parseDataset parses Dataset "name" { clauses } and resolves
// child-by-reference DATA clauses.
func (p *parser) parseDataset() (*DatasetNode, error) {
	kwPos := p.peek().pos()
	if err := p.expectKeyword("Dataset"); err != nil {
		return nil, err
	}
	nameTok := p.next()
	if nameTok.Kind != tokString {
		return nil, p.errf("expected quoted dataset name, got %s", nameTok)
	}
	n := &DatasetNode{Name: nameTok.Text, Pos: kwPos}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var childRefs []string            // names referenced in DATA { Dataset x ... }
	defs := map[string]*DatasetNode{} // nested Dataset definitions by name
	var defOrder []string
	for !p.peek().isPunct("}") {
		t := p.peek()
		switch {
		case t.isKeyword("DATATYPE"):
			p.next()
			if err := p.parseDatatype(n); err != nil {
				return nil, err
			}
		case t.isKeyword("DATAINDEX"):
			p.next()
			names, err := p.parseIdentBlock()
			if err != nil {
				return nil, err
			}
			n.IndexAttrs = names
		case t.isKeyword("BYTEORDER"):
			p.next()
			names, err := p.parseIdentBlock()
			if err != nil {
				return nil, err
			}
			if len(names) != 1 || (!strings.EqualFold(names[0], "BIG") && !strings.EqualFold(names[0], "LITTLE")) {
				return nil, p.errf("BYTEORDER must be { BIG } or { LITTLE }")
			}
			n.ByteOrder = strings.ToUpper(names[0])
		case t.isKeyword("DATASPACE"):
			p.next()
			if n.Space != nil {
				return nil, p.errf("duplicate DATASPACE in dataset %q", n.Name)
			}
			if err := p.expectPunct("{"); err != nil {
				return nil, err
			}
			items, err := p.parseSpaceItems()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
			n.Space = &Dataspace{Items: items}
		case t.isKeyword("CHUNKED"):
			p.next()
			names, err := p.parseIdentBlock()
			if err != nil {
				return nil, err
			}
			n.Chunked = names
		case t.isKeyword("DATA"):
			p.next()
			refs, clauses, inline, err := p.parseDataBlock()
			if err != nil {
				return nil, err
			}
			childRefs = append(childRefs, refs...)
			n.Files = append(n.Files, clauses...)
			for _, c := range inline {
				if _, dup := defs[c.Name]; dup {
					return nil, p.errf("duplicate nested dataset %q", c.Name)
				}
				defs[c.Name] = c
				defOrder = append(defOrder, c.Name)
			}
		case t.isKeyword("INDEXFILE"):
			p.next()
			refs, clauses, inline, err := p.parseDataBlock()
			if err != nil {
				return nil, err
			}
			if len(refs) > 0 || len(inline) > 0 {
				return nil, p.errf("INDEXFILE of dataset %q names a dataset", n.Name)
			}
			n.IndexFiles = append(n.IndexFiles, clauses...)
		case t.isKeyword("Dataset"):
			c, err := p.parseDataset()
			if err != nil {
				return nil, err
			}
			if _, dup := defs[c.Name]; dup {
				return nil, p.errf("duplicate nested dataset %q", c.Name)
			}
			defs[c.Name] = c
			defOrder = append(defOrder, c.Name)
		default:
			return nil, p.errf("unexpected %s in dataset %q", t, n.Name)
		}
	}
	p.next() // }

	// Resolve children: referenced names must be defined; definitions not
	// referenced are appended in definition order (supporting both the
	// paper's reference style and plain nesting).
	used := map[string]bool{}
	for _, ref := range childRefs {
		c, ok := defs[ref]
		if !ok {
			return nil, fmt.Errorf("metadata: dataset %q references undefined dataset %q", n.Name, ref)
		}
		if used[ref] {
			return nil, fmt.Errorf("metadata: dataset %q references dataset %q twice", n.Name, ref)
		}
		used[ref] = true
		n.Children = append(n.Children, c)
	}
	for _, name := range defOrder {
		if !used[name] {
			n.Children = append(n.Children, defs[name])
		}
	}
	return n, nil
}

// parseDatatype parses DATATYPE { SCHEMA_REF? (NAME = type)* }.
func (p *parser) parseDatatype(n *DatasetNode) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !p.peek().isPunct("}") {
		t := p.next()
		if t.Kind != tokIdent {
			return p.errf("expected identifier in DATATYPE, got %s", t)
		}
		if p.peek().isPunct("=") {
			p.next()
			kindName := p.next()
			if kindName.Kind != tokIdent {
				return p.errf("expected type name, got %s", kindName)
			}
			text := kindName.Text
			if p.peek().Kind == tokIdent && !p.peekAt(1).isPunct("=") {
				if _, err := schema.ParseKind(text + " " + p.peek().Text); err == nil {
					text += " " + p.next().Text
				}
			}
			k, err := schema.ParseKind(text)
			if err != nil {
				return p.errf("%v", err)
			}
			n.ExtraAttrs = append(n.ExtraAttrs, schema.Attribute{Name: t.Text, Kind: k})
			continue
		}
		if n.TypeName != "" {
			return p.errf("multiple schema references in DATATYPE (%q and %q)", n.TypeName, t.Text)
		}
		n.TypeName = t.Text
	}
	p.next() // }
	return nil
}

// parseIdentBlock parses { IDENT IDENT ... } allowing optional commas.
func (p *parser) parseIdentBlock() ([]string, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var names []string
	for !p.peek().isPunct("}") {
		if p.peek().isPunct(",") {
			p.next()
			continue
		}
		t := p.next()
		if t.Kind != tokIdent {
			return nil, p.errf("expected identifier, got %s", t)
		}
		names = append(names, t.Text)
	}
	p.next() // }
	if len(names) == 0 {
		return nil, p.errf("empty identifier block")
	}
	return names, nil
}

// parseSpaceItems parses the body of a DATASPACE or LOOP until '}'.
func (p *parser) parseSpaceItems() ([]SpaceItem, error) {
	var items []SpaceItem
	for !p.peek().isPunct("}") {
		t := p.peek()
		switch {
		case t.isKeyword("LOOP"):
			loopPos := t.pos()
			p.next()
			v := p.next()
			if v.Kind != tokIdent {
				return nil, p.errf("expected loop variable, got %s", v)
			}
			lo, hi, step, err := p.parseRange()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("{"); err != nil {
				return nil, err
			}
			body, err := p.parseSpaceItems()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
			items = append(items, &Loop{Var: v.Text, Lo: lo, Hi: hi, Step: step, Body: body, Pos: loopPos})
		case t.Kind == tokIdent:
			p.next()
			items = append(items, AttrRef{Name: t.Text, Pos: t.pos()})
		case t.isEOF():
			return nil, p.errf("unterminated dataspace body")
		default:
			return nil, p.errf("unexpected %s in dataspace", t)
		}
	}
	return items, nil
}

// parseDataBlock parses a DATA block, which may contain dataset
// references (Dataset name), inline dataset definitions (Dataset "name"
// { ... }), or file clauses.
func (p *parser) parseDataBlock() (refs []string, clauses []FileClause, inline []*DatasetNode, err error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, nil, nil, err
	}
	for !p.peek().isPunct("}") {
		t := p.peek()
		switch {
		case t.isKeyword("Dataset"):
			if p.peekAt(1).Kind == tokString {
				c, err := p.parseDataset()
				if err != nil {
					return nil, nil, nil, err
				}
				inline = append(inline, c)
				continue
			}
			p.next()
			name := p.next()
			if name.Kind != tokIdent {
				return nil, nil, nil, p.errf("expected dataset name after Dataset, got %s", name)
			}
			refs = append(refs, name.Text)
		case t.isKeyword("DIR"):
			fc, err := p.parseFileClause()
			if err != nil {
				return nil, nil, nil, err
			}
			clauses = append(clauses, *fc)
		case t.isEOF():
			return nil, nil, nil, p.errf("unterminated DATA block")
		default:
			return nil, nil, nil, p.errf("unexpected %s in DATA block", t)
		}
	}
	p.next() // }
	return refs, clauses, inline, nil
}

// parseFileClause parses DIR[expr]/NAME-template followed by zero or more
// VAR = lo:hi:step bindings.
func (p *parser) parseFileClause() (*FileClause, error) {
	dirPos := p.peek().pos()
	if err := p.expectKeyword("DIR"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	dir, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("/"); err != nil {
		return nil, err
	}
	fc := &FileClause{Dir: dir, Pos: dirPos}
	// Name template: adjacent IDENT / NUMBER / '.' / '$'IDENT tokens.
	first := true
	for {
		t := p.peek()
		if !first && !t.Adjacent {
			break
		}
		switch {
		case t.Kind == tokIdent || t.Kind == tokNumber:
			fc.Name = append(fc.Name, NamePart{Lit: t.Text})
			p.next()
		case t.isPunct("."):
			fc.Name = append(fc.Name, NamePart{Lit: "."})
			p.next()
		case t.isPunct("$"):
			p.next()
			v := p.peek()
			if v.Kind != tokIdent || !v.Adjacent {
				return nil, p.errf("expected variable name after $ in file name")
			}
			p.next()
			fc.Name = append(fc.Name, NamePart{Var: v.Text})
		default:
			if first {
				return nil, p.errf("expected file name after DIR[...]/, got %s", t)
			}
			goto nameDone
		}
		first = false
	}
nameDone:
	if len(fc.Name) == 0 {
		return nil, p.errf("empty file name template")
	}
	// Bindings: IDENT = expr:expr(:expr)? — but stop when the next token
	// starts another file clause (DIR[) or the block ends.
	for {
		t := p.peek()
		if t.Kind != tokIdent || !p.peekAt(1).isPunct("=") {
			break
		}
		if t.isKeyword("DIR") && p.peekAt(1).isPunct("[") {
			break
		}
		p.next() // var
		p.next() // =
		lo, hi, step, err := p.parseRange()
		if err != nil {
			return nil, err
		}
		fc.Bindings = append(fc.Bindings, Binding{Var: t.Text, Lo: lo, Hi: hi, Step: step, Pos: t.pos()})
	}
	return fc, nil
}

// parseRange parses lo:hi with an optional :step (default 1).
func (p *parser) parseRange() (lo, hi, step Expr, err error) {
	if lo, err = p.parseExpr(); err != nil {
		return
	}
	if err = p.expectPunct(":"); err != nil {
		return
	}
	if hi, err = p.parseExpr(); err != nil {
		return
	}
	step = NumberExpr{1}
	if p.peek().isPunct(":") {
		p.next()
		step, err = p.parseExpr()
	}
	return
}

// parseExpr parses an integer bound expression with the usual
// precedence: (+ -) < (* / %) < unary minus, parentheses, $VAR or bare
// identifiers as variables.
func (p *parser) parseExpr() (Expr, error) {
	e, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.peek().isPunct("+") || p.peek().isPunct("-") {
		op := p.next().Text[0]
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		// Fold eagerly so constant sub-expressions print canonically
		// regardless of where they sit in a larger expression.
		e = ConstExpr(BinExpr{Op: op, L: e, R: r})
	}
	return ConstExpr(e), nil
}

func (p *parser) parseTerm() (Expr, error) {
	e, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.peek().isPunct("*") || p.peek().isPunct("/") || p.peek().isPunct("%") {
		op := p.next().Text[0]
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		e = ConstExpr(BinExpr{Op: op, L: e, R: r})
	}
	return e, nil
}

func (p *parser) parseFactor() (Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == tokNumber:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return NumberExpr{v}, nil
	case t.isPunct("$"):
		p.next()
		v := p.next()
		if v.Kind != tokIdent {
			return nil, p.errf("expected variable name after $, got %s", v)
		}
		return VarExpr{v.Text}, nil
	case t.Kind == tokIdent:
		p.next()
		return VarExpr{t.Text}, nil
	case t.isPunct("("):
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.isPunct("-"):
		p.next()
		e, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return ConstExpr(NegExpr{e}), nil
	}
	return nil, p.errf("expected expression, got %s", t)
}
