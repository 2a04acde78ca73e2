package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"datavirt/internal/lint"
)

// One loader for every golden test: the source importer type-checks a
// good chunk of the standard library, so sharing its memoized state
// keeps the suite fast.
var (
	loaderOnce sync.Once
	sharedL    *lint.Loader
	moduleDir  string
	loaderErr  error
)

func loader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		abs, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			loaderErr = err
			return
		}
		moduleDir = abs
		sharedL = lint.NewLoader(abs, "datavirt")
	})
	if sharedL == nil {
		t.Fatalf("loader init: %v", loaderErr)
	}
	return sharedL
}

// Golden-test expectations live in the testdata sources as
//
//	expr // want "substring" ["substring" ...]
//
// matched against diagnostics on the same line, or
//
//	// want-below "substring"
//
// matched against the following line (for directive comments that
// would swallow an inline want).
var (
	wantRE = regexp.MustCompile(`// want(-below)?((?:\s+"(?:[^"\\]|\\.)*")+)`)
	strRE  = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

func parseWants(t *testing.T, dir string) map[string][]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string][]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			ln := i + 1
			if m[1] == "-below" {
				ln = i + 2
			}
			key := fmt.Sprintf("%s:%d", e.Name(), ln)
			for _, q := range strRE.FindAllString(m[2], -1) {
				s, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s: bad want string %s: %v", key, q, err)
				}
				wants[key] = append(wants[key], s)
			}
		}
	}
	return wants
}

// runGolden loads internal/lint/testdata/src/<rel>, runs the given
// analyzers over it and diffs the diagnostics against the package's
// want comments: every diagnostic must be wanted, every want matched.
func runGolden(t *testing.T, analyzers []*lint.Analyzer, rel string) {
	t.Helper()
	l := loader(t)
	dir := filepath.Join(moduleDir, "internal", "lint", "testdata", "src", filepath.FromSlash(rel))
	importPath := "datavirt/internal/lint/testdata/src/" + rel
	pkg, err := l.Load(dir, importPath)
	if err != nil {
		t.Fatalf("load %s: %v", rel, err)
	}
	diags, err := lint.Run(l, pkg, analyzers)
	if err != nil {
		t.Fatalf("run %s: %v", rel, err)
	}

	wants := parseWants(t, dir)
	used := map[string][]bool{}
	for k, ws := range wants {
		used[k] = make([]bool, len(ws))
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.File), d.Line)
		matched := false
		for i, w := range wants[key] {
			if !used[key][i] && strings.Contains(d.Message, w) {
				used[key][i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s (%s)", key, d.Message, d.Analyzer)
		}
	}
	for k, ws := range wants {
		for i, w := range ws {
			if !used[k][i] {
				t.Errorf("missing diagnostic at %s: want message containing %q", k, w)
			}
		}
	}
}

func TestCtxFlowGolden(t *testing.T) {
	runGolden(t, []*lint.Analyzer{lint.CtxFlow}, "ctxflow")
}

func TestLockIOGolden(t *testing.T) {
	runGolden(t, []*lint.Analyzer{lint.LockIO}, "lockio")
}

func TestStatsSyncGoldenObs(t *testing.T) {
	runGolden(t, []*lint.Analyzer{lint.StatsSync}, "statssync/obs")
}

func TestCloseCheckGolden(t *testing.T) {
	runGolden(t, []*lint.Analyzer{lint.CloseCheck}, "closecheck")
}

func TestSuppressGolden(t *testing.T) {
	runGolden(t, []*lint.Analyzer{lint.LockIO, lint.IgnoreReason}, "suppress")
}

// The three concurrency-contract analyzers pair with IgnoreReason so
// their suppression cases also prove the directives are well-formed.

func TestGuardedByGolden(t *testing.T) {
	runGolden(t, []*lint.Analyzer{lint.GuardedBy, lint.IgnoreReason}, "guardedby")
}

func TestGoLifeGolden(t *testing.T) {
	runGolden(t, []*lint.Analyzer{lint.GoLife, lint.IgnoreReason}, "golife")
}

func TestFrameProtoGolden(t *testing.T) {
	runGolden(t, []*lint.Analyzer{lint.FrameProto, lint.IgnoreReason}, "frameproto")
}

// TestTreeClean is the regression gate dvlint enforces in CI, repeated
// here so `go test ./...` catches violations too: the full analyzer
// suite must be silent on every package of the module.
func TestTreeClean(t *testing.T) {
	l := loader(t)
	dirs, err := lint.ModulePackageDirs(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range dirs {
		importPath := "datavirt"
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.Load(filepath.Join(moduleDir, rel), importPath)
		if err != nil {
			t.Fatalf("load %s: %v", importPath, err)
		}
		diags, err := lint.Run(l, pkg, lint.All())
		if err != nil {
			t.Fatalf("run %s: %v", importPath, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

func TestModulePackageDirsSkipsTestdata(t *testing.T) {
	loader(t) // sets moduleDir
	dirs, err := lint.ModulePackageDirs(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no package dirs found")
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("testdata dir not skipped: %s", d)
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range lint.All() {
		if lint.ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if lint.ByName("nosuch") != nil {
		t.Error("ByName(nosuch) should be nil")
	}
}
