// Command dvdesc works with meta-data descriptors: it validates them,
// pretty-prints the canonical text form, converts between the text
// language and its XML embedding (paper §3.1: "the description language
// ... can easily be embedded in an XML file"), and summarizes what a
// descriptor resolves to (schema, nodes, files, layouts).
//
// Usage:
//
//	dvdesc -in dataset.dvd                  # validate + summarize
//	dvdesc -in dataset.dvd -to xml          # convert to XML (stdout)
//	dvdesc -in dataset.xml -to text         # convert back
//	dvdesc -in dataset.dvd -print           # canonical text form
//	dvdesc check [-json] FILE...            # compile-time checker
//
// The check subcommand runs the descriptor static checker
// (internal/metadata/lint): positioned file:line:col diagnostics for
// layout/schema problems, without touching any data file. It exits 1
// when any error-severity diagnostic is reported, 0 otherwise (warnings
// alone do not fail the check).
package main

import (
	"flag"
	"fmt"
	"os"

	"datavirt/internal/afc"
	"datavirt/internal/metadata"
	desclint "datavirt/internal/metadata/lint"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "check" {
		runCheck(os.Args[2:])
		return
	}
	in := flag.String("in", "", "descriptor file (text or XML; auto-detected)")
	to := flag.String("to", "", "convert: text or xml (to stdout)")
	print := flag.Bool("print", false, "print the canonical text form")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "usage: dvdesc -in FILE [-to text|xml] [-print]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	d, err := metadata.ParseFile(*in)
	if err != nil {
		fatal(err)
	}
	switch *to {
	case "":
	case "text":
		fmt.Print(d.String())
		return
	case "xml":
		out, err := metadata.ToXML(d)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	default:
		fatal(fmt.Errorf("unknown -to %q (want text or xml)", *to))
	}
	if *print {
		fmt.Print(d.String())
		return
	}

	// Summary: compile the plan and report what the descriptor binds.
	plan, err := afc.Compile(d)
	if err != nil {
		fatal(err)
	}
	sch := plan.Schema
	fmt.Printf("descriptor: valid\n")
	fmt.Printf("dataset:    %s (schema %s, %d attributes, %d bytes/row)\n",
		d.Storage.DatasetName, sch.Name(), sch.NumAttrs(), sch.RowBytes())
	nodes := map[string]bool{}
	for _, dir := range d.Storage.Dirs {
		nodes[dir.Node] = true
	}
	fmt.Printf("storage:    %d directories on %d nodes\n", len(d.Storage.Dirs), len(nodes))
	files := 0
	for _, lf := range plan.DataLeaves {
		files += len(lf.Files)
	}
	for _, cl := range plan.ChunkedLeaves {
		files += len(cl.Files)
	}
	style := "dataspace"
	if len(plan.ChunkedLeaves) > 0 {
		style = "chunked+indexed"
	}
	fmt.Printf("layout:     %d leaf datasets (%s), %d data files, %.1f MB total\n",
		len(plan.DataLeaves)+len(plan.ChunkedLeaves), style, files,
		float64(plan.TotalDataBytes())/1e6)
	if groups, err := plan.Groups(); err == nil && len(plan.DataLeaves) > 0 {
		fmt.Printf("alignment:  %d file groups\n", len(groups))
	}
	fmt.Printf("available:  %v\n", plan.AvailableAttrs())
}

// runCheck implements `dvdesc check [-json] [-data ROOT] FILE...`.
func runCheck(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array")
	dataRoot := fs.String("data", "", "also check sparse index sidecar coverage against this data root")
	fs.Parse(args) //nolint:errcheck — ExitOnError
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: dvdesc check [-json] [-data ROOT] FILE...")
		os.Exit(2)
	}
	var all []metadata.Diagnostic
	for _, path := range fs.Args() {
		ds, err := desclint.CheckFile(path)
		if err != nil {
			fatal(err)
		}
		all = append(all, ds...)
		if *dataRoot != "" {
			ds, err := desclint.CheckSidecarsFile(path, *dataRoot)
			if err != nil {
				fatal(err)
			}
			all = append(all, ds...)
		}
	}
	if *asJSON {
		if err := desclint.WriteJSON(os.Stdout, all); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range all {
			fmt.Println(d)
		}
	}
	if metadata.HasErrors(all) {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dvdesc:", err)
	os.Exit(1)
}
