package bench

import (
	"fmt"
	"path/filepath"

	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/handwritten"
	"datavirt/internal/table"
)

// RunFig11a reproduces Figure 11(a): Ipars execution time as the query
// window grows, hand-written vs generated code.
func RunFig11a(cfg Config) (*Table, error) {
	spec := gen.IparsSpec{
		Realizations: 2,
		TimeSteps:    cfg.scaleInt(128, 16, 8),
		GridPoints:   cfg.scaleInt(2400, 64, 8),
		Partitions:   4,
		Attrs:        17,
		Seed:         604,
	}
	root, err := ensureDir(cfg, "fig11a")
	if err != nil {
		return nil, err
	}
	if !haveMarker(root, "data", spec) {
		cfg.logf("fig11a: generating Ipars dataset")
		if _, err := gen.WriteIpars(root, spec, "CLUSTER"); err != nil {
			return nil, err
		}
		if err := setMarker(root, "data", spec); err != nil {
			return nil, err
		}
	}
	svc, err := core.Open(filepath.Join(root, "ipars_cluster.dvd"), root)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "fig11a",
		Title:  "Ipars: execution time vs query size (hand vs generated)",
		Header: []string{"window_%", "rows", "hand_ms", "gen_ms", "gen/hand"},
	}
	T := spec.TimeSteps
	for _, frac := range []int{8, 4, 2, 1} { // 1/8, 1/4, 1/2, all
		width := T / frac
		sql := fmt.Sprintf("SELECT * FROM IparsData WHERE TIME >= 1 AND TIME <= %d", width)

		h := &handwritten.IparsCluster{Root: root, Spec: spec}
		var handRows int64
		handTime, err := timeBest(cfg, func() error {
			handRows = 0
			_, err := h.Query(sql, func(table.Row) error { handRows++; return nil })
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fig11a hand %d%%: %w", 100/frac, err)
		}

		prep, err := prepare(svc, sql)
		if err != nil {
			return nil, err
		}
		var genRows int64
		genTime, err := timeBest(cfg, func() error {
			var err error
			genRows, _, err = countRows(prep, core.Options{})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fig11a gen %d%%: %w", 100/frac, err)
		}
		if handRows != genRows {
			return nil, fmt.Errorf("fig11a %d%%: hand %d rows, gen %d", 100/frac, handRows, genRows)
		}
		t.AddRow(fmt.Sprint(100/frac), fmt.Sprint(genRows), ms(handTime), ms(genTime),
			fmt.Sprintf("%.2f", float64(genTime)/float64(handTime)))
	}
	t.Notes = append(t.Notes, "processing time should stay proportional to the data retrieved (paper §5)")
	return t, nil
}

// RunFig11b reproduces Figure 11(b): Titan execution time as the
// spatial query window grows, hand-written vs generated code. It reuses
// the Figure 6 dataset (stored on a single node, as in the paper).
func RunFig11b(cfg Config) (*Table, error) {
	svc, db, spec, err := setupFig6(cfg)
	if err != nil {
		return nil, err
	}
	db.Close() // only the flat-file side is needed here

	h := &handwritten.Titan{Root: filepath.Join(cfg.WorkDir, "fig6"), Spec: spec}
	defer h.Close()

	t := &Table{
		ID:     "fig11b",
		Title:  "Titan: execution time vs query size (hand vs generated)",
		Header: []string{"window_%", "rows", "hand_ms", "gen_ms", "gen/hand"},
	}
	for _, pct := range []int{25, 50, 75, 100} {
		x := spec.XMax * pct / 100
		y := spec.YMax * pct / 100
		sql := fmt.Sprintf("SELECT * FROM TitanData WHERE X >= 0 AND X <= %d AND Y >= 0 AND Y <= %d", x, y)

		var handRows int64
		handTime, err := timeBest(cfg, func() error {
			handRows = 0
			_, err := h.Query(sql, func(table.Row) error { handRows++; return nil })
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fig11b hand %d%%: %w", pct, err)
		}
		prep, err := prepare(svc, sql)
		if err != nil {
			return nil, err
		}
		var genRows int64
		genTime, err := timeBest(cfg, func() error {
			var err error
			genRows, _, err = countRows(prep, core.Options{})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fig11b gen %d%%: %w", pct, err)
		}
		if handRows != genRows {
			return nil, fmt.Errorf("fig11b %d%%: hand %d rows, gen %d", pct, handRows, genRows)
		}
		t.AddRow(fmt.Sprint(pct), fmt.Sprint(genRows), ms(handTime), ms(genTime),
			fmt.Sprintf("%.2f", float64(genTime)/float64(handTime)))
	}
	return t, nil
}
