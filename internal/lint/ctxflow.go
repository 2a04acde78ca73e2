package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces the context discipline PR 1 introduced in the query
// path: cancellation must flow from the public API down to every block
// read and goroutine. In internal/core, internal/extractor and
// internal/cluster:
//
//   - context.Background()/context.TODO() may not appear at all: every
//     entry point takes its caller's context, and a fresh one anywhere
//     below would detach that call tree from cancellation — including
//     in a one-line convenience shim;
//   - a declared context.Context parameter must actually be forwarded
//     (an unused ctx silently breaks cancellation downstream);
//   - an exported function that spawns goroutines or performs direct
//     file/net I/O must accept a context.Context.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "exported functions in core/extractor/cluster doing I/O or spawning goroutines accept and forward context.Context",
	Run:  runCtxFlow,
}

var ctxflowPkgNames = map[string]bool{"core": true, "extractor": true, "cluster": true}

func runCtxFlow(pass *Pass) error {
	if !ctxflowPkgNames[pass.Pkg.Name] {
		return nil
	}
	bc := &blockClassifier{loader: pass.Loader, memo: map[*types.Func]string{}}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkCtxFunc(pass, bc, fd)
			}
		}
	}
	return nil
}

func checkCtxFunc(pass *Pass, bc *blockClassifier, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	ctxVars, haveCtxParam := contextParams(info, fd)

	// Rule 1: no Background/TODO below the API boundary.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		if fn.Name() != "Background" && fn.Name() != "TODO" {
			return true
		}
		pass.Reportf(call.Pos(),
			"context.%s() below the public API boundary: accept the caller's context.Context and forward it",
			fn.Name())
		return true
	})

	// Rule 2: a named context parameter must be forwarded.
	for _, v := range ctxVars {
		if v.Name() == "" || v.Name() == "_" {
			continue
		}
		if !usesVar(info, fd.Body, v) {
			pass.Reportf(v.Pos(), "context parameter %s is declared but never forwarded", v.Name())
		}
	}

	// Rule 3: exported work-starting functions must take a context.
	// Close/Shutdown are exempt: they ARE the cancellation path, and
	// the io.Closer contract fixes their signature.
	if !fd.Name.IsExported() || haveCtxParam ||
		fd.Name.Name == "Close" || fd.Name.Name == "Shutdown" {
		return
	}
	var what string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if what != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			what = "spawns goroutines"
		case *ast.CallExpr:
			// Direct I/O only (depth 0): requiring a context on every
			// transitive path would flag pure constructors; the
			// boundary functions that matter issue the I/O themselves.
			if bc.blockingCall(info, n, 0) != "" {
				what = "performs blocking I/O"
			}
		}
		return true
	})
	if what != "" {
		pass.Reportf(fd.Name.Pos(),
			"exported %s %s but has no context.Context parameter", fd.Name.Name, what)
	}
}

// contextParams returns the named context.Context parameters and
// whether any parameter (named or not) has that type.
func contextParams(info *types.Info, fd *ast.FuncDecl) ([]*types.Var, bool) {
	var vars []*types.Var
	have := false
	if fd.Type.Params == nil {
		return nil, false
	}
	for _, field := range fd.Type.Params.List {
		if tv, ok := info.Types[field.Type]; !ok || !isContextType(tv.Type) {
			continue
		}
		have = true
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				vars = append(vars, v)
			}
		}
	}
	return vars, have
}
