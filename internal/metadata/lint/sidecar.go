package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"datavirt/internal/metadata"
	"datavirt/internal/sparse"
)

// CheckSidecarsFile reads one descriptor and runs the opt-in sidecar
// coverage pass against dataRoot. The error is only for I/O problems
// reading the descriptor itself.
func CheckSidecarsFile(path, dataRoot string) ([]metadata.Diagnostic, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return CheckSidecars(path, string(src), dataRoot), nil
}

// CheckSidecars is the one lint pass that touches the data directory:
// for every non-chunked leaf whose payload stores an effective
// DATAINDEX attribute, it expands the DATA clauses (within the
// expander's file budget) and warns when a concrete data
// file has no usable sparse block-index sidecar covering those
// attributes — the descriptor promises an indexed access path the
// query engine will silently downgrade to a full scan:
//
//	sidecar-missing (W) an indexed payload attribute has data files
//	                    without a sidecar, with an unreadable sidecar,
//	                    or with a sidecar that does not cover it
//
// Chunked leaves are skipped: their DATAINDEX attributes are served by
// the leaf's own spatial chunk index, not by sidecars. A descriptor
// that does not parse yields nothing, and a leaf whose files do not
// expand is skipped — Check already reports both.
func CheckSidecars(file, src, dataRoot string) []metadata.Diagnostic {
	d, err := metadata.ParseUnvalidated(src)
	if err != nil || d.Layout == nil || d.Storage == nil {
		return nil
	}
	var diags []metadata.Diagnostic
	report := func(pos metadata.Pos, format string, args ...any) {
		diags = append(diags, metadata.Diagnostic{
			File: file, Line: pos.Line, Col: pos.Col, Severity: metadata.SevWarning,
			Code: "sidecar-missing", Message: fmt.Sprintf(format, args...),
		})
	}

	var walk func(n *metadata.DatasetNode, indexed []string)
	walk = func(n *metadata.DatasetNode, indexed []string) {
		indexed = append(indexed[:len(indexed):len(indexed)], n.IndexAttrs...)
		if !n.IsLeaf() {
			for _, ch := range n.Children {
				walk(ch, indexed)
			}
			return
		}
		if n.Space == nil || len(n.Chunked) > 0 {
			return
		}
		stored := map[string]bool{}
		var collect func(items []metadata.SpaceItem)
		collect = func(items []metadata.SpaceItem) {
			for _, it := range items {
				switch item := it.(type) {
				case metadata.AttrRef:
					stored[item.Name] = true
				case *metadata.Loop:
					collect(item.Body)
				}
			}
		}
		collect(n.Space.Items)
		// Coverage inside an existing sidecar is only checkable for
		// indexed attributes the payload stores (zone maps summarize
		// stored values); pure loop dimensions like REL/TIME still demand
		// a sidecar, whose zone maps over the stored attributes carry the
		// block-skipping the DATAINDEX declaration promises.
		if len(indexed) == 0 {
			return
		}
		var want []string
		for _, a := range indexed {
			if stored[a] {
				want = append(want, a)
			}
		}

		files, err := metadata.ExpandLeaf(d.Storage, n)
		if err != nil || len(files) == 0 {
			return
		}
		total := len(files)
		var missing, unreadable int
		uncovered := map[string]bool{}
		for _, fi := range files {
			scPath := sparse.SidecarPath(filepath.Join(dataRoot, fi.Node(), filepath.FromSlash(fi.Path())))
			if _, err := os.Stat(scPath); err != nil {
				missing++
				continue
			}
			sc, err := sparse.ReadFile(scPath)
			if err != nil {
				unreadable++
				continue
			}
			for _, a := range want {
				if sc.Zones(a) == nil {
					uncovered[a] = true
				}
			}
		}
		if missing > 0 {
			report(n.Pos, "dataset %q: %d of %d data files have no sparse index sidecar for indexed attributes %v — queries on them fall back to full scans (build with dvindex)",
				n.Name, missing, total, indexed)
		}
		if unreadable > 0 {
			report(n.Pos, "dataset %q: %d of %d data files have an unreadable sparse index sidecar (rebuild with dvindex)",
				n.Name, unreadable, total)
		}
		if len(uncovered) > 0 {
			attrs := make([]string, 0, len(uncovered))
			for a := range uncovered {
				attrs = append(attrs, a)
			}
			sort.Strings(attrs)
			report(n.Pos, "dataset %q: existing sidecars do not cover indexed attributes %v (rebuild with dvindex)",
				n.Name, attrs)
		}
	}
	walk(d.Layout, nil) // document order, so already sorted by position
	return diags
}
