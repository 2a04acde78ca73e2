package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLife requires every spawned goroutine to have a provable
// termination path, so serve loops, query legs and session readers
// cannot silently leak. A `go` statement is accepted when any of the
// following holds:
//
//   - the goroutine is WaitGroup-registered: an X.Add call on a
//     sync.WaitGroup precedes the statement in the enclosing function,
//     or the body calls Done on one (a leak then hangs Wait in tests
//     instead of vanishing);
//   - the body is bounded: it contains no `for {}`-style loop without a
//     condition (range loops terminate with their collection, or on
//     channel close);
//   - every unbounded loop in the body contains an escape — a return
//     (the ctx.Done()/close-signal select idiom) or a break that exits
//     the loop (an unlabeled break inside a nested select/switch/loop
//     does not count).
//
// Method and function calls spawned directly (`go s.readLoop()`)
// resolve through the loader to the callee's body; goroutines over
// dynamic function values cannot be proven and must carry a
// //dvlint:ignore with the reason.
var GoLife = &Analyzer{
	Name: "golife",
	Doc:  "every go statement has a provable termination path: done-channel select/return, bounded loop, or WaitGroup registration",
	Run:  runGoLife,
}

func runGoLife(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			adds := wgAddPositions(pass.Pkg.Info, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					checkGoStmt(pass, gs, adds)
				}
				return true
			})
		}
	}
	return nil
}

// wgAddPositions collects the positions of every sync.WaitGroup Add
// call in the declaration, for the "registered before spawn" test.
func wgAddPositions(info *types.Info, body *ast.BlockStmt) []token.Pos {
	var out []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" {
			if tv, ok := info.Types[sel.X]; ok && isWaitGroupType(tv.Type) {
				out = append(out, call.Pos())
			}
		}
		return true
	})
	return out
}

// checkGoStmt applies the three termination rules to one go statement.
func checkGoStmt(pass *Pass, gs *ast.GoStmt, wgAdds []token.Pos) {
	info := pass.Pkg.Info
	var body *ast.BlockStmt
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		body = lit.Body
	} else if fn := calleeFunc(info, gs.Call); fn != nil {
		src := pass.Loader.FuncSource(fn)
		if src.Decl != nil {
			body = src.Decl.Body
			info = src.Pkg.Info
		}
	}
	if body == nil {
		pass.Reportf(gs.Pos(), "goroutine over a dynamic function value cannot be proven to terminate; spawn a named function or suppress with the reason")
		return
	}

	// Rule 1: WaitGroup-registered.
	for _, p := range wgAdds {
		if p < gs.Pos() {
			return
		}
	}
	if callsWaitGroupDone(info, body) {
		return
	}

	// Rules 2 and 3: no unbounded loop, or every unbounded loop escapes.
	bad := firstNonTerminatingLoop(body)
	if bad == nil {
		return
	}
	pass.Reportf(gs.Pos(), "goroutine has no provable termination path: unbounded loop at %s never returns or breaks; select on ctx.Done()/a close-signaled channel, bound the loop, or register the goroutine with a WaitGroup",
		pass.Loader.Fset.Position(bad.Pos()))
}

// callsWaitGroupDone reports whether the body (including deferred
// calls) calls Done on a sync.WaitGroup.
func callsWaitGroupDone(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			if tv, ok := info.Types[sel.X]; ok && isWaitGroupType(tv.Type) {
				found = true
			}
		}
		return true
	})
	return found
}

// firstNonTerminatingLoop returns the first `for` loop without a
// condition in the goroutine body (not inside a nested function
// literal) that contains no escape, or nil when all loops terminate.
func firstNonTerminatingLoop(body *ast.BlockStmt) *ast.ForStmt {
	var bad *ast.ForStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs in another frame when called
		case *ast.ForStmt:
			if n.Cond == nil && !stmtsEscape(n.Body.List, true) {
				bad = n
			}
		}
		return true
	})
	return bad
}

// stmtsEscape reports whether the statement list can exit the enclosing
// unbounded loop: a return, a labeled branch (assumed to target an
// enclosing construct), or — while directly breakable — an unlabeled
// break. Nested loops, switches and selects consume unlabeled breaks,
// which is exactly the `break` inside `select` leak this distinguishes.
func stmtsEscape(stmts []ast.Stmt, breakable bool) bool {
	for _, s := range stmts {
		if stmtEscapes(s, breakable) {
			return true
		}
	}
	return false
}

func stmtEscapes(s ast.Stmt, breakable bool) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		if s.Label != nil {
			return true
		}
		return s.Tok == token.BREAK && breakable
	case *ast.BlockStmt:
		return stmtsEscape(s.List, breakable)
	case *ast.IfStmt:
		if stmtsEscape(s.Body.List, breakable) {
			return true
		}
		if s.Else != nil {
			return stmtEscapes(s.Else, breakable)
		}
	case *ast.LabeledStmt:
		return stmtEscapes(s.Stmt, breakable)
	case *ast.ForStmt:
		return stmtsEscape(s.Body.List, false)
	case *ast.RangeStmt:
		return stmtsEscape(s.Body.List, false)
	case *ast.SwitchStmt:
		return clausesEscape(s.Body.List)
	case *ast.TypeSwitchStmt:
		return clausesEscape(s.Body.List)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && stmtsEscape(cc.Body, false) {
				return true
			}
		}
	}
	return false
}

func clausesEscape(list []ast.Stmt) bool {
	for _, c := range list {
		if cc, ok := c.(*ast.CaseClause); ok && stmtsEscape(cc.Body, false) {
			return true
		}
	}
	return false
}

// isWaitGroupType reports whether t is sync.WaitGroup (possibly behind
// a pointer).
func isWaitGroupType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
