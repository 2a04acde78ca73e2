package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCommandLineTools drives every cmd/ binary through a realistic
// session: generate a dataset, inspect and convert its descriptor, emit
// generated code, query locally, start node servers, and submit a
// distributed query. Skipped under -short (each `go run` compiles).
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("go run per tool is slow")
	}
	root := t.TempDir()
	run := func(wantFail bool, args ...string) string {
		t.Helper()
		cmd := exec.Command("go", append([]string{"run"}, args...)...)
		cmd.Dir = mustGetwd(t)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		err := cmd.Run()
		if (err != nil) != wantFail {
			t.Fatalf("go run %v: err=%v\n%s", args, err, out.String())
		}
		return out.String()
	}

	// dvgen: a 2-node IPARS study and a Titan dataset.
	out := run(false, "./cmd/dvgen", "-dataset", "ipars", "-layout", "CLUSTER",
		"-out", root, "-parts", "2", "-rel", "2", "-steps", "8", "-grid", "40", "-attrs", "4")
	if !strings.Contains(out, "wrote IPARS dataset (640 rows") {
		t.Fatalf("dvgen ipars: %s", out)
	}
	out = run(false, "./cmd/dvgen", "-dataset", "titan", "-out", root,
		"-points", "3000", "-tiles", "2x2x2")
	if !strings.Contains(out, "wrote TITAN dataset (3000 points") {
		t.Fatalf("dvgen titan: %s", out)
	}
	desc := filepath.Join(root, "ipars_cluster.dvd")

	// dvdesc: summary, then text→XML→summary.
	out = run(false, "./cmd/dvdesc", "-in", desc)
	if !strings.Contains(out, "descriptor: valid") || !strings.Contains(out, "2 nodes") {
		t.Fatalf("dvdesc: %s", out)
	}
	xmlOut := run(false, "./cmd/dvdesc", "-in", desc, "-to", "xml")
	xmlPath := filepath.Join(root, "ipars.xml")
	if err := os.WriteFile(xmlPath, []byte(xmlOut), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(false, "./cmd/dvdesc", "-in", xmlPath)
	if !strings.Contains(out, "descriptor: valid") {
		t.Fatalf("dvdesc xml: %s", out)
	}

	// dvcodegen: emitted source has the marker and an Index function.
	out = run(false, "./cmd/dvcodegen", "-desc", desc, "-pkg", "genx")
	if !strings.Contains(out, "DO NOT EDIT") || !strings.Contains(out, "func Index(") {
		t.Fatalf("dvcodegen: %s", out)
	}

	// dvq: local query over both descriptor forms, plus explain.
	out = run(false, "./cmd/dvq", "-desc", desc, "-root", root, "-quiet",
		"SELECT SOIL FROM IparsData WHERE TIME = 3")
	if !strings.Contains(out, "80 rows") {
		t.Fatalf("dvq: %s", out)
	}
	out = run(false, "./cmd/dvq", "-desc", xmlPath, "-root", root, "-quiet",
		"SELECT SOIL FROM IparsData WHERE TIME = 3")
	if !strings.Contains(out, "80 rows") {
		t.Fatalf("dvq xml: %s", out)
	}
	out = run(false, "./cmd/dvq", "-desc", desc, "-root", root, "-explain",
		"SELECT * FROM IparsData WHERE REL = 1")
	if !strings.Contains(out, "chunks planned: 16") {
		t.Fatalf("dvq explain: %s", out)
	}
	// Titan via its descriptor.
	out = run(false, "./cmd/dvq", "-desc", filepath.Join(root, "titan.dvd"),
		"-root", root, "-quiet", "SELECT * FROM TitanData WHERE S1 < 0.5")
	if !strings.Contains(out, "rows in") {
		t.Fatalf("dvq titan: %s", out)
	}
	// Errors exit non-zero.
	run(true, "./cmd/dvq", "-desc", desc, "-root", root, "not sql")
	run(true, "./cmd/dvdesc", "-in", filepath.Join(root, "missing.dvd"))

	// dvnode + dvsubmit: build the binaries once (go run would orphan the
	// servers), start two nodes, submit a distributed query.
	bin := t.TempDir()
	for _, tool := range []string{"dvnode", "dvsubmit"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		cmd.Dir = mustGetwd(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	type nodeProc struct {
		cmd  *exec.Cmd
		addr string
	}
	var nodes []nodeProc
	for i, port := range []string{"127.0.0.1:39071", "127.0.0.1:39072"} {
		cmd := exec.Command(filepath.Join(bin, "dvnode"),
			"-desc", desc, "-root", root, "-node", fmt.Sprintf("node%d", i), "-addr", port)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		// Wait for the "serving" banner.
		buf := make([]byte, 256)
		if _, err := stdout.Read(buf); err != nil {
			t.Fatalf("node %d banner: %v", i, err)
		}
		nodes = append(nodes, nodeProc{cmd: cmd, addr: port})
	}
	sub := exec.Command(filepath.Join(bin, "dvsubmit"),
		"-desc", desc,
		"-nodes", "node0="+nodes[0].addr+",node1="+nodes[1].addr,
		"-quiet",
		"SELECT * FROM IparsData WHERE TIME >= 2 AND TIME <= 3")
	subOut, err := sub.CombinedOutput()
	if err != nil {
		t.Fatalf("dvsubmit: %v\n%s", err, subOut)
	}
	if !strings.Contains(string(subOut), "160 rows") {
		t.Fatalf("dvsubmit output: %s", subOut)
	}
	// Partitioned submission.
	sub2 := exec.Command(filepath.Join(bin, "dvsubmit"),
		"-desc", desc,
		"-nodes", "node0="+nodes[0].addr+",node1="+nodes[1].addr,
		"-quiet", "-partition", "hash", "-dests", "2", "-attr", "TIME",
		"SELECT TIME FROM IparsData")
	sub2Out, err := sub2.CombinedOutput()
	if err != nil {
		t.Fatalf("dvsubmit partitioned: %v\n%s", err, sub2Out)
	}
	if !strings.Contains(string(sub2Out), "640 rows") {
		t.Fatalf("dvsubmit partitioned output: %s", sub2Out)
	}
}

func mustGetwd(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

// docTestName matches a backticked test, fuzz or benchmark name in the
// docs, with an optional /subtest path: `TestX`, `BenchmarkY/sub`.
var docTestName = regexp.MustCompile("`((?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*)(?:/[^`]*)?`")

// TestDocsNameExistingTests holds README.md, DESIGN.md and
// EXPERIMENTS.md to the test suite: every test, fuzz target and
// benchmark they name in backticks must be a function in some _test.go
// file of the repository, so a renamed or deleted test cannot leave a
// doc pointing at nothing.
func TestDocsNameExistingTests(t *testing.T) {
	defined := definedTests(t, ".", true)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range docTestName.FindAllStringSubmatch(line, -1) {
				if !defined[m[1]] {
					t.Errorf("%s:%d names `%s`, which no _test.go defines", doc, i+1, m[1])
				}
			}
		}
	}
}

// testDecl matches the declaration of a test, fuzz target or benchmark.
var testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// definedTests returns the names of the tests, fuzz targets and
// benchmarks that the _test.go files in dir define, and in its
// subdirectories too when recursive (hidden directories excepted).
func definedTests(t *testing.T, dir string, recursive bool) map[string]bool {
	t.Helper()
	defined := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != dir && (!recursive || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDecl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return defined
}

// TestCIPatternsMatch holds .github/workflows/ci.yml to the test suite:
// every -run, -bench and -fuzz pattern a `go test` step passes must
// match at least one test, benchmark or fuzz target that the step's
// package defines, so a rename cannot leave a CI step running nothing.
// -run '^$', the idiom for running no test beside -bench or -fuzz, is
// exempt. Only a pattern's top level (before any '/') is checked.
func TestCIPatternsMatch(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string][]string{"-run": {"Test", "Fuzz"}, "-bench": {"Benchmark"}, "-fuzz": {"Fuzz"}}
	checked := 0
	for i, line := range strings.Split(string(src), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		args := strings.Fields(cmd)
		var pkgs []string
		pats := map[string]string{}
		for j := 0; j < len(args); j++ {
			switch a := args[j]; {
			case kinds[a] != nil && j+1 < len(args):
				pats[a] = strings.Trim(args[j+1], `'"`)
				j++
			case strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		for flag, pat := range pats {
			if flag == "-run" && pat == "^$" {
				continue
			}
			re, err := regexp.Compile(strings.SplitN(pat, "/", 2)[0])
			if err != nil {
				t.Errorf("ci.yml:%d: %s %q: %v", i+1, flag, pat, err)
				continue
			}
			for _, pkg := range pkgs {
				dir, recursive := strings.CutSuffix(pkg, "/...")
				matched := false
				for name := range definedTests(t, filepath.Clean(dir), recursive) {
					for _, prefix := range kinds[flag] {
						matched = matched || (strings.HasPrefix(name, prefix) && re.MatchString(name))
					}
				}
				if !matched {
					t.Errorf("ci.yml:%d: %s %q matches nothing defined in %s", i+1, flag, pat, pkg)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no go test pattern in ci.yml; the check is vacuous")
	}
}
