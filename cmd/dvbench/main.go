// Command dvbench regenerates the paper's evaluation: one experiment
// per table/figure of §5, printed in paper-table form. Datasets are
// generated into (and reused from) the work directory. Performance of
// the engine itself is measured by the benchmark module instead (see
// benchmark/README.md).
//
// Usage:
//
//	dvbench -workdir /tmp/dvbench -exp all
//	dvbench -exp fig6 -scale 0.5
//	dvbench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"datavirt/internal/bench"
)

func main() {
	workdir := flag.String("workdir", "dvbench-work", "dataset/workspace directory (reused across runs)")
	exp := flag.String("exp", "all", "experiment id or 'all' (see -list)")
	scale := flag.Float64("scale", 1.0, "dataset size multiplier")
	quick := flag.Bool("quick", false, "tiny smoke-test sizes")
	trials := flag.Int("trials", 2, "timed repetitions per measurement (minimum reported)")
	verbose := flag.Bool("v", true, "progress to stderr")
	list := flag.Bool("list", false, "list experiments and the paper queries, then exit")
	verify := flag.Bool("verify", false, "cross-check systems on a small sample before timing")
	flag.Parse()

	if *list {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-14s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := bench.Config{
		WorkDir: *workdir, Scale: *scale, Quick: *quick,
		Trials: *trials, Verbose: *verbose,
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	if *verify {
		fmt.Fprintln(os.Stderr, "dvbench: verifying cross-system agreement ...")
		if err := bench.Verify(cfg); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "dvbench: verification passed")
	}

	var toRun []bench.Experiment
	if *exp == "all" {
		toRun = bench.Experiments()
	} else {
		e, ok := bench.Lookup(*exp)
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q; try -list", *exp))
		}
		toRun = []bench.Experiment{e}
	}
	for _, e := range toRun {
		start := time.Now()
		tbl, err := e.Run(cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Println(tbl.Format())
		fmt.Fprintf(os.Stderr, "dvbench: %s finished in %s\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dvbench:", err)
	os.Exit(1)
}
