package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of this module from source,
// with no dependency on golang.org/x/tools (which the build
// environment does not provide). Standard-library imports resolve
// through the compiler's source importer (GOROOT source); imports
// within the module resolve recursively through the loader itself, so
// full type information — including cross-package function bodies for
// the interprocedural analyzers — is available offline.
type Loader struct {
	Fset *token.FileSet
	// ModulePath is the module's import-path prefix ("datavirt").
	ModulePath string
	// ModuleDir is the module root on disk.
	ModuleDir string

	std   types.Importer
	pkgs  map[string]*Package
	funcs map[*types.Func]FuncSource
}

// Package is one loaded package: syntax plus type information.
type Package struct {
	ImportPath string
	Dir        string
	Name       string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// FuncSource locates a function's declaration together with the
// package whose type information resolves its body.
type FuncSource struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// NewLoader returns a loader rooted at the module directory.
func NewLoader(moduleDir, modulePath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modulePath,
		ModuleDir:  moduleDir,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		funcs:      map[*types.Func]FuncSource{},
	}
}

// Import implements types.Importer: module-internal paths load through
// the loader, everything else through the GOROOT source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.LoadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadPath loads the module package with the given import path.
func (l *Loader) LoadPath(path string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return l.Load(filepath.Join(l.ModuleDir, filepath.FromSlash(rel)), path)
}

// Load parses and type-checks the package in dir under the given
// import path. Test files are skipped (their external dependencies may
// not be loadable and the invariants hold for shipping code). Results
// are memoized by import path.
func (l *Loader) Load(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		if p == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", importPath)
		}
		return p, nil
	}
	l.pkgs[importPath] = nil // cycle guard

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}

	p := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Name:       tpkg.Name(),
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[importPath] = p
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				l.funcs[fn] = FuncSource{Decl: fd, Pkg: p}
			}
		}
	}
	return p, nil
}

// FuncSource returns the declaration of a module function loaded so
// far (directly or as a dependency), or a zero FuncSource.
func (l *Loader) FuncSource(fn *types.Func) FuncSource { return l.funcs[fn] }

// goFilesIn lists the package's non-test Go files, sorted.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ModulePackageDirs walks the module for directories containing Go
// files, skipping testdata, hidden directories and the module's
// .claude/ tree. Returned paths are relative to root, "." first.
func ModulePackageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			base := filepath.Base(path)
			if path != root && (strings.HasPrefix(base, ".") || base == "testdata" || base == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			seen[rel] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}
