package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// verdict of one (end-to-end metric, workload) pair between two runs.
const (
	better     = "better"
	within     = "within"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares a metric's medians. spread is the wider of the two
// runs' spread between rounds. When it is wider than the bound the pair
// cannot be resolved either way; otherwise a worsening beyond the bound
// is a regression and, symmetrically, only an improvement beyond the
// bound is reported as one: the bound is the drift this machine shows
// between runs of unchanged code, which the spread inside a run cannot
// see.
func judge(old, new measured) (spread float64, v string) {
	// How much worse new is, as a share of old (negative = improved).
	change := (new.Value - old.Value) / old.Value
	if old.Better == "higher" {
		change = -change
	}
	spread = old.Spread
	if new.Spread > spread {
		spread = new.Spread
	}
	switch {
	case spread > old.Bound:
		return spread, unresolved
	case change > old.Bound:
		return spread, worse
	case change < -old.Bound:
		return spread, better
	}
	return spread, within
}

// compareFiles prints one row per (end-to-end metric, workload) of two
// output files and reports whether any metric got worse beyond its
// bound or any workload's error rate rose.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	old, err := readDoc(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readDoc(newPath)
	if err != nil {
		return false, err
	}
	if old.Traced || cur.Traced {
		return false, fmt.Errorf("-compare reads untraced runs; per-layer metrics carry no bound")
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\told (%.7s)\tnew (%.7s)\tnew/old\tbound\tspread\tverdict\n", old.Commit, cur.Commit)
	for _, ow := range old.Workloads {
		nw := cur.workload(ow.Name)
		if nw == nil {
			return false, fmt.Errorf("%s: workload %s is missing", newPath, ow.Name)
		}
		for _, om := range ow.Metrics {
			nm, ok := nw.metric(om.Name)
			if !ok {
				return false, fmt.Errorf("%s: %s has no metric %s", newPath, ow.Name, om.Name)
			}
			spread, v := judge(om, nm)
			if v == worse {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s\t%.4f %s\t%.3f (%s is better)\t%.0f%%\t%.1f%%\t%s\n",
				ow.Name, om.Name, om.Value, om.Unit, nm.Value, nm.Unit, nm.Value/om.Value, om.Better, 100*om.Bound, 100*spread, v)
		}
		oe, _ := ow.metric("error_rate")
		ne, _ := nw.metric("error_rate")
		v := within
		if ne.Value > oe.Value {
			v, regressed = worse, true
		}
		fmt.Fprintf(tw, "%s\terror_rate\t%.6f\t%.6f\t\t0%%\t\t%s\n", ow.Name, oe.Value, ne.Value, v)
	}
	return regressed, tw.Flush()
}
