package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockIO forbids blocking calls while holding a mutex in the cache and
// core packages: the sharded LRU and the service's index and cache
// locks are hot, and an open/read/dial (or a channel wait) under them
// serializes every other query on the shard. Blocking is detected directly
// (os/net/time calls, channel operations, WaitGroup.Wait) and through
// up to three levels of module-internal calls, using the loader's
// cross-package function bodies.
var LockIO = &Analyzer{
	Name: "lockio",
	Doc:  "no blocking call (file/net I/O, channel op, Wait) while holding a mutex in internal/cache or internal/core",
	Run:  runLockIO,
}

var lockioPkgNames = map[string]bool{"cache": true, "core": true}

// interprocDepth bounds how many module-internal call levels the
// blocking classification follows.
const interprocDepth = 3

func runLockIO(pass *Pass) error {
	if !lockioPkgNames[pass.Pkg.Name] {
		return nil
	}
	bc := &blockClassifier{loader: pass.Loader, memo: map[*types.Func]string{}}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockWalker{pass: pass, bc: bc, held: map[string]token.Pos{}}
			w.block(fd.Body.List)
		}
	}
	return nil
}

// lockWalker walks a function body in execution order tracking which
// mutexes are held. Branch bodies are analyzed with a copy of the held
// set; a branch that falls through merges its exit state back by union
// ("possibly held" is enough to flag), while a terminating branch
// (return/branch/panic) leaves the fall-through state untouched.
type lockWalker struct {
	pass *Pass
	bc   *blockClassifier
	held map[string]token.Pos
}

func (w *lockWalker) block(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.stmt(s)
	}
}

func (w *lockWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, locked, ok := w.lockOp(s.X); ok {
			if locked {
				w.held[key] = s.Pos()
			} else {
				delete(w.held, key)
			}
			return
		}
		w.check(s.X)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the mutex held for the rest of the
		// function; any other deferred call runs after the body, when
		// the analysis no longer applies. Either way the deferred call
		// itself is not checked.
	case *ast.GoStmt:
		// The spawned goroutine does not block the lock holder.
	case *ast.BlockStmt:
		w.block(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.check(s.Cond)
		w.branch(s.Body.List)
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			w.branch(e.List)
		case *ast.IfStmt:
			w.branch([]ast.Stmt{e})
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.check(s.Cond)
		}
		w.branch(s.Body.List)
	case *ast.RangeStmt:
		w.check(s.X)
		w.branch(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.check(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.branch(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.branch(cc.Body)
			}
		}
	case *ast.SelectStmt:
		if len(w.held) > 0 {
			w.reportBlocked(s.Pos(), "select (channel wait)")
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.branch(cc.Body)
			}
		}
	case *ast.SendStmt:
		if len(w.held) > 0 {
			w.reportBlocked(s.Pos(), "channel send")
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	default:
		w.check(s)
	}
}

// branch analyzes a conditional body with a copy of the held set and
// merges the exit state by union unless the body terminates.
func (w *lockWalker) branch(stmts []ast.Stmt) {
	saved := w.held
	w.held = copyHeld(saved)
	w.block(stmts)
	exit := w.held
	w.held = saved
	if terminates(stmts) {
		return
	}
	for k, p := range exit {
		w.held[k] = p
	}
}

func copyHeld(m map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// lockOp recognizes m.Lock()/m.RLock()/m.Unlock()/m.RUnlock() on a
// sync.Mutex or sync.RWMutex and returns the lock key.
func (w *lockWalker) lockOp(e ast.Expr) (key string, locked, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	var isLock bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		isLock = true
	case "Unlock", "RUnlock":
		isLock = false
	default:
		return "", false, false
	}
	tv, okT := w.pass.Pkg.Info.Types[sel.X]
	if !okT || !isMutexType(tv.Type) {
		return "", false, false
	}
	return exprString(sel.X), isLock, true
}

// check scans an expression subtree for blocking operations while a
// lock is held. Function literals are skipped: their bodies run when
// called, not here.
func (w *lockWalker) check(root ast.Node) {
	if len(w.held) == 0 || root == nil {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.reportBlocked(n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if why := w.bc.blockingCall(w.pass.Pkg.Info, n, interprocDepth); why != "" {
				w.reportBlocked(n.Pos(), why)
			}
		}
		return true
	})
}

func (w *lockWalker) reportBlocked(pos token.Pos, what string) {
	for key, lockPos := range w.held {
		w.pass.Reportf(pos, "%s while holding %s (locked at %s); hoist the blocking work outside the critical section",
			what, key, w.pass.Loader.Fset.Position(lockPos))
		return // one held lock in the message is enough
	}
}

// blockClassifier decides whether a call blocks, following
// module-internal callees through the loader's cross-package bodies.
type blockClassifier struct {
	loader *Loader
	memo   map[*types.Func]string
}

var osBlockingFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "ReadFile": true,
	"WriteFile": true, "ReadDir": true, "Stat": true, "Lstat": true,
	"Remove": true, "RemoveAll": true, "Rename": true, "Mkdir": true,
	"MkdirAll": true, "Truncate": true,
}

var osFileMethods = map[string]bool{
	"Read": true, "ReadAt": true, "Write": true, "WriteAt": true,
	"Close": true, "Sync": true, "Seek": true, "Stat": true,
	"Truncate": true, "ReadFrom": true,
}

var netBlockingFuncs = map[string]bool{
	"Dial": true, "DialTimeout": true, "Listen": true, "ListenPacket": true,
}

// blockingValueNames are function-value spellings presumed to block
// when called through a field or variable (dependency injection hides
// the real callee from the type checker).
var blockingValueNames = map[string]bool{
	"open": true, "openfile": true, "readfile": true, "readat": true,
	"fetch": true, "load": true, "dial": true,
}

// fileIfaceMethods are the methods that block on a file-like interface.
var fileIfaceMethods = map[string]bool{
	"Read": true, "ReadAt": true, "Write": true, "WriteAt": true,
	"Close": true, "Sync": true,
}

// fileLikeInterfaceName returns the type's name when it is a named
// interface exposing Read or ReadAt (so implementations wrap real
// files), excluding the net interfaces handled above; "" otherwise.
func fileLikeInterfaceName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || isNetInterface(named) {
		return ""
	}
	iface, ok := named.Underlying().(*types.Interface)
	if !ok {
		return ""
	}
	for i := 0; i < iface.NumMethods(); i++ {
		switch iface.Method(i).Name() {
		case "Read", "ReadAt":
			return named.Obj().Name()
		}
	}
	return ""
}

// blockingCall returns a short description of why the call blocks, or
// "" if it does not (or cannot be shown to).
func (bc *blockClassifier) blockingCall(info *types.Info, call *ast.CallExpr, depth int) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		// Dynamic call through a function value. Injected dependencies
		// like the handle cache's open callback can't be resolved
		// statically, so fall back to the callee's spelling.
		name := ""
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if blockingValueNames[strings.ToLower(name)] {
			return fmt.Sprintf("call to %s function value (presumed blocking by name)", name)
		}
		return ""
	}
	recvPkg, recvType := namedRecv(fn)
	switch fn.Pkg().Path() {
	case "os":
		if recvType == "" && osBlockingFuncs[fn.Name()] {
			return "call to os." + fn.Name()
		}
		if recvPkg == "os" && recvType == "File" && osFileMethods[fn.Name()] {
			return "call to (*os.File)." + fn.Name()
		}
	case "net":
		if recvType == "" && netBlockingFuncs[fn.Name()] {
			return "call to net." + fn.Name()
		}
		if recvPkg == "net" && fn.Name() == "Accept" {
			return "call to net Accept"
		}
	case "sync":
		// sync.Cond.Wait is designed to be called with the lock held;
		// only WaitGroup.Wait is an unbounded block.
		if recvType == "WaitGroup" && fn.Name() == "Wait" {
			return "call to sync.WaitGroup.Wait"
		}
	case "time":
		if recvType == "" && fn.Name() == "Sleep" {
			return "call to time.Sleep"
		}
	}
	// net.Conn / net.Listener interface methods.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok && isNetInterface(tv.Type) {
			switch fn.Name() {
			case "Read", "Write", "Accept", "Close":
				return "call to net connection " + fn.Name()
			}
		}
	}
	// File-like interfaces (cache.File, io.ReaderAt, ...): reading or
	// closing one reaches real file I/O through any plausible
	// implementation. Classified by the operand's static type — an
	// embedded io.Closer's method object carries the io receiver, not
	// the embedding interface.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && fileIfaceMethods[fn.Name()] {
		if tv, ok := info.Types[sel.X]; ok {
			if name := fileLikeInterfaceName(tv.Type); name != "" {
				return fmt.Sprintf("call to %s on file-like interface %s", fn.Name(), name)
			}
		}
	}
	// Module-internal callee: look one level (up to interprocDepth)
	// into its body.
	if depth > 0 && strings.HasPrefix(fn.Pkg().Path(), bc.loader.ModulePath) {
		if why := bc.blockingBody(fn, depth); why != "" {
			return fmt.Sprintf("call to %s.%s, which blocks (%s)", fn.Pkg().Name(), fn.Name(), why)
		}
	}
	return ""
}

// blockingBody reports why fn's body blocks, or "". Results are
// memoized; recursion through the memo's in-progress marker breaks
// call cycles (treated as non-blocking).
func (bc *blockClassifier) blockingBody(fn *types.Func, depth int) string {
	if why, ok := bc.memo[fn]; ok {
		return why
	}
	bc.memo[fn] = "" // in-progress / cycle guard
	src := bc.loader.FuncSource(fn)
	if src.Decl == nil || src.Decl.Body == nil {
		return ""
	}
	why := ""
	ast.Inspect(src.Decl.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				why = "channel receive"
			}
		case *ast.SendStmt:
			why = "channel send"
		case *ast.SelectStmt:
			why = "select"
		case *ast.CallExpr:
			why = bc.blockingCall(src.Pkg.Info, n, depth-1)
		}
		return true
	})
	bc.memo[fn] = why
	return why
}

// isNetInterface reports whether t is net.Conn or net.Listener.
func isNetInterface(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "net" {
		return false
	}
	return obj.Name() == "Conn" || obj.Name() == "Listener"
}
