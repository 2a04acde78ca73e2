// Package lint is a project-specific static-analysis suite encoding
// this codebase's invariants, in the style of golang.org/x/tools/go/
// analysis but built purely on the standard library's go/ast, go/parser
// and go/types (the container has no module cache, so x/tools is not
// available; see Loader for how type information is obtained offline).
//
// The analyzers:
//
//	ctxflow    — context discipline in internal/core, internal/extractor
//	             and internal/cluster: exported functions that spawn
//	             goroutines or do direct I/O must accept a
//	             context.Context; a declared context parameter must be
//	             forwarded; no context.Background()/context.TODO() at
//	             all (no context-less shims).
//	lockio     — no blocking call (file/net I/O, channel operation,
//	             WaitGroup.Wait, one level of module-internal calls
//	             that lead to one) while holding a mutex in
//	             internal/cache or internal/core.
//	statssync  — obs.QueryStats counter hygiene: every field must be
//	             merged in Add and surfaced in Counters/String (or
//	             StageTime for durations), and the cluster trailer
//	             merge must set every field.
//	closecheck — values of the closable resource types (core.Rows,
//	             cache.File, net.Conn) must be closed, transferred or
//	             returned on every acquisition.
//	guardedby  — every access to a struct field annotated
//	             //dvlint:guardedby <mutexField> holds the named mutex
//	             (write lock for writes, read lock sufficing for
//	             reads), with pointer-escape reporting and a
//	             depth-bounded callers-hold-the-lock check.
//	golife     — every go statement has a provable termination path:
//	             a done-channel select/return, a bounded loop, or
//	             WaitGroup registration.
//	frameproto — the cluster wire protocol's frame kinds (derived from
//	             the frame* character constants) are each handled or
//	             explicitly rejected by every demux switch, and each
//	             has matched encode/decode sites.
//	ignorereason — every //dvlint:ignore suppression names an analyzer
//	             and carries a non-empty reason.
//
// Diagnostics can be suppressed with a comment on the same line or the
// line above:
//
//	//dvlint:ignore <analyzer> <reason>
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in output and in //dvlint:ignore.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run reports the analyzer's findings on one package via
	// pass.Reportf.
	Run func(pass *Pass) error
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{CtxFlow, LockIO, StatsSync, CloseCheck, GuardedBy, GoLife, FrameProto, IgnoreReason}
}

// ByName resolves an analyzer from the suite, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Pass carries one analyzer's view of one loaded package.
type Pass struct {
	Analyzer *Analyzer
	// Loader gives access to cross-package declarations (every
	// dependency loaded so far), for the interprocedural checks.
	Loader *Loader
	// Pkg is the package under analysis.
	Pkg *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Loader.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

// String renders the conventional "file:line:col: message (analyzer)".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Run executes the analyzers over one loaded package and returns the
// surviving diagnostics (suppressions applied), sorted by position.
func Run(l *Loader, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Loader: l, Pkg: pkg, diags: &diags}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	diags = filterSuppressed(l.Fset, pkg, diags)
	for i := range diags {
		diags[i].File = diags[i].Pos.Filename
		diags[i].Line = diags[i].Pos.Line
		diags[i].Col = diags[i].Pos.Column
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column < b.Pos.Column
	})
	return diags, nil
}
