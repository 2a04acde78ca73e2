// Command dvlint is the project's static-analysis multichecker: it
// runs the internal/lint analyzer suite (ctxflow, lockio, statssync,
// closecheck, guardedby, golife, frameproto, ignorereason) over module
// packages and exits non-zero on any finding. It is self-contained —
// type information comes from the stdlib go/types checker with a
// source importer, so it needs no network, module cache or external
// tooling.
//
// Usage:
//
//	dvlint [-json] [-only analyzer[,analyzer]] ./...
//	dvlint ./internal/cache ./internal/core
//	dvlint -list              # print the registered analyzers (JSON with -json)
//
// -list prints one analyzer per line as "name<TAB>doc"; CI diffs it
// against the checked-in manifest (cmd/dvlint/analyzers.txt) so the
// registered suite cannot change silently.
//
// Suppress a finding with a comment on the same line or the line
// above: //dvlint:ignore <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"datavirt/internal/lint"
)

func main() {
	asJSON := flag.Bool("json", false, "emit diagnostics as a JSON array")
	only := flag.String("only", "", "comma-separated analyzer subset to run")
	list := flag.Bool("list", false, "print the registered analyzers and exit")
	flag.Parse()

	if *list {
		if err := printAnalyzers(os.Stdout, *asJSON); err != nil {
			fatal(err)
		}
		return
	}

	analyzers := lint.All()
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fatal(fmt.Errorf("unknown analyzer %q", name))
			}
			analyzers = append(analyzers, a)
		}
	}

	moduleDir, modulePath, err := findModule()
	if err != nil {
		fatal(err)
	}
	dirs, err := targetDirs(moduleDir, flag.Args())
	if err != nil {
		fatal(err)
	}

	loader := lint.NewLoader(moduleDir, modulePath)
	var all []lint.Diagnostic
	for _, rel := range dirs {
		importPath := modulePath
		if rel != "." {
			importPath = modulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := loader.Load(filepath.Join(moduleDir, rel), importPath)
		if err != nil {
			fatal(err)
		}
		diags, err := lint.Run(loader, pkg, analyzers)
		if err != nil {
			fatal(err)
		}
		all = append(all, diags...)
	}

	if *asJSON {
		if all == nil {
			all = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range all {
			fmt.Println(d)
		}
	}
	if len(all) > 0 {
		os.Exit(1)
	}
}

// printAnalyzers renders the registered suite, one "name<TAB>doc" line
// per analyzer (a JSON array of {name, doc} objects with -json). The
// text form is the manifest format CI pins.
func printAnalyzers(w io.Writer, asJSON bool) error {
	if asJSON {
		type entry struct {
			Name string `json:"name"`
			Doc  string `json:"doc"`
		}
		var out []entry
		for _, a := range lint.All() {
			out = append(out, entry{Name: a.Name, Doc: a.Doc})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	for _, a := range lint.All() {
		if _, err := fmt.Fprintf(w, "%s\t%s\n", a.Name, a.Doc); err != nil {
			return err
		}
	}
	return nil
}

// findModule locates the enclosing go.mod and reads the module path.
func findModule() (dir, path string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("dvlint: no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("dvlint: no go.mod found")
		}
		dir = parent
	}
}

// targetDirs resolves the command-line patterns to module-relative
// package directories. "./..." (or no argument) means every package in
// the module; "dir/..." expands recursively; anything else is taken as
// one directory.
func targetDirs(moduleDir string, args []string) ([]string, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var out []string
	seen := map[string]bool{}
	add := func(rel string) {
		rel = filepath.Clean(rel)
		if !seen[rel] {
			seen[rel] = true
			out = append(out, rel)
		}
	}
	for _, arg := range args {
		if rest, ok := strings.CutSuffix(arg, "..."); ok {
			root := filepath.Join(moduleDir, filepath.Clean(strings.TrimSuffix(rest, "/")))
			subdirs, err := lint.ModulePackageDirs(root)
			if err != nil {
				return nil, err
			}
			for _, d := range subdirs {
				rel, err := filepath.Rel(moduleDir, filepath.Join(root, d))
				if err != nil {
					return nil, err
				}
				add(rel)
			}
			continue
		}
		p := filepath.Clean(arg)
		if filepath.IsAbs(p) {
			rel, err := filepath.Rel(moduleDir, p)
			if err != nil {
				return nil, err
			}
			p = rel
		}
		add(p)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dvlint:", err)
	os.Exit(1)
}
