package bench

import (
	"fmt"
	"path/filepath"
	"strings"

	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/handwritten"
	"datavirt/internal/table"
)

// fig9Spec sizes the Ipars dataset used for the layout experiments.
func fig9Spec(cfg Config) gen.IparsSpec {
	return gen.IparsSpec{
		Realizations: 4,
		TimeSteps:    cfg.scaleInt(128, 8, 4),
		GridPoints:   cfg.scaleInt(1000, 64, 8),
		Partitions:   1,
		Attrs:        17,
		Seed:         604,
	}
}

// fig9Variants lists the compared configurations: the hand-written code
// for the original L0 format, then the compiler-generated code for L0
// and the paper's layouts I–VI.
func fig9Variants() []string {
	return []string{"L0-hand", "L0", "I", "II", "III", "IV", "V", "VI"}
}

// setupFig9Layout materializes one layout (reused across runs) and
// returns its root and descriptor path.
func setupFig9Layout(cfg Config, spec gen.IparsSpec, layoutID string) (root, descPath string, err error) {
	root, err = ensureDir(cfg, "fig9", strings.ToLower(layoutID))
	if err != nil {
		return "", "", err
	}
	descPath = filepath.Join(root, "ipars_"+strings.ToLower(layoutID)+".dvd")
	if !haveMarker(root, "data", spec) {
		cfg.logf("fig9: generating layout %s", layoutID)
		if _, err := gen.WriteIpars(root, spec, layoutID); err != nil {
			return "", "", err
		}
		if err := setMarker(root, "data", spec); err != nil {
			return "", "", err
		}
	}
	return root, descPath, nil
}

// runFig9 measures the given Figure 8 query numbers over every variant.
func runFig9(cfg Config, id, title string, queryNos []int) (*Table, error) {
	spec := fig9Spec(cfg)
	queries := iparsQueries(spec.TimeSteps)
	t := &Table{ID: id, Title: title}
	t.Header = []string{"layout"}
	for _, n := range queryNos {
		t.Header = append(t.Header, fmt.Sprintf("Q%d_ms", n))
	}
	t.Header = append(t.Header, "rows_Q"+fmt.Sprint(queryNos[0]))

	var refRows int64 = -1
	for _, variant := range fig9Variants() {
		layoutID := variant
		hand := false
		if variant == "L0-hand" {
			layoutID, hand = "L0", true
		}
		root, descPath, err := setupFig9Layout(cfg, spec, layoutID)
		if err != nil {
			return nil, err
		}
		row := []string{variant}
		var firstRows int64
		for qi, n := range queryNos {
			q := queries[n-1]
			sql := q.SQL("IparsData")
			var rows int64
			var d string
			if hand {
				h := &handwritten.IparsL0{Root: root, Spec: spec}
				dur, err := timeBest(cfg, func() error {
					rows = 0
					_, err := h.Query(sql, func(table.Row) error { rows++; return nil })
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("%s %s Q%d: %w", id, variant, n, err)
				}
				d = ms(dur)
			} else {
				svc, err := core.Open(descPath, root)
				if err != nil {
					return nil, err
				}
				prep, err := prepare(svc, sql)
				if err != nil {
					return nil, fmt.Errorf("%s %s Q%d: %w", id, variant, n, err)
				}
				dur, err := timeBest(cfg, func() error {
					var err error
					rows, _, err = countRows(prep, core.Options{})
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("%s %s Q%d: %w", id, variant, n, err)
				}
				d = ms(dur)
			}
			if qi == 0 {
				firstRows = rows
			}
			row = append(row, d)
		}
		// Cross-variant sanity: every layout answers identically.
		if refRows < 0 {
			refRows = firstRows
		} else if firstRows != refRows {
			return nil, fmt.Errorf("%s: layout %s returned %d rows, expected %d",
				id, variant, firstRows, refRows)
		}
		row = append(row, fmt.Sprint(firstRows))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"L0-hand is the hand-written extractor for the original application format; all other rows use compiler-generated code",
		fmt.Sprintf("dataset: %d realizations x %d steps x %d grid points x 17 variables",
			spec.Realizations, spec.TimeSteps, spec.GridPoints))
	return t, nil
}

// RunFig9a reproduces Figure 9(a): the full-scan query across layouts.
func RunFig9a(cfg Config) (*Table, error) {
	return runFig9(cfg, "fig9a", "Ipars Query 1 (full scan) across file layouts", []int{1})
}

// RunFig9b reproduces Figure 9(b): queries 2–5 across layouts.
func RunFig9b(cfg Config) (*Table, error) {
	return runFig9(cfg, "fig9b", "Ipars Queries 2-5 across file layouts", []int{2, 3, 4, 5})
}
