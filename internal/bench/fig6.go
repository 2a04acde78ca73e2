package bench

import (
	"fmt"
	"path/filepath"

	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/rowstore"
	"datavirt/internal/schema"
	"datavirt/internal/table"
)

// fig6Spec sizes the Titan dataset for the Figure 6 comparison.
func fig6Spec(cfg Config) gen.TitanSpec {
	return gen.TitanSpec{
		Points: cfg.scaleInt(1_500_000, 20_000, 1),
		XMax:   20000, YMax: 20000, ZMax: 200,
		TilesX: 16, TilesY: 16, TilesZ: 8,
		Nodes: 1, Seed: 604,
	}
}

// setupFig6 generates the Titan dataset and loads it into the rowstore
// (data files, chunk index, heap, B-tree indexes on X, Y, Z and S1 — the
// paper indexes "by spatial coordinates in both systems and also by
// attribute S1 in PostgreSQL"). Both are reused across runs.
func setupFig6(cfg Config) (svc *core.Service, db *rowstore.DB, spec gen.TitanSpec, err error) {
	spec = fig6Spec(cfg)
	dir, err := ensureDir(cfg, "fig6")
	if err != nil {
		return nil, nil, spec, err
	}
	if !haveMarker(dir, "titan") {
		cfg.logf("fig6: generating Titan dataset (%d points)", spec.Points)
		if _, err := gen.WriteTitan(dir, spec); err != nil {
			return nil, nil, spec, err
		}
		if err := setMarker(dir, "titan"); err != nil {
			return nil, nil, spec, err
		}
	}
	svc, err = core.Open(filepath.Join(dir, "titan.dvd"), dir)
	if err != nil {
		return nil, nil, spec, err
	}

	pgDir := filepath.Join(dir, "rowstore")
	loaded := haveMarker(dir, "rowstore")
	db, err = rowstore.Open(pgDir)
	if err != nil {
		return nil, nil, spec, err
	}
	if !loaded {
		cfg.logf("fig6: COPYing %d tuples into the rowstore", spec.Points)
		tbl, err := db.Create(gen.TitanSchema())
		if err != nil {
			db.Close()
			return nil, nil, spec, err
		}
		j := int64(0)
		row := make(table.Row, 8)
		if _, err := tbl.CopyFrom(func() (table.Row, bool, error) {
			if j >= int64(spec.Points) {
				return nil, false, nil
			}
			x, y, z, s := spec.Point(j)
			row[0] = schema.IntValue(int64(x))
			row[1] = schema.IntValue(int64(y))
			row[2] = schema.IntValue(int64(z))
			for k := 0; k < 5; k++ {
				row[3+k] = schema.FloatValue(float64(s[k]))
			}
			j++
			return row, true, nil
		}); err != nil {
			db.Close()
			return nil, nil, spec, err
		}
		for _, attr := range []string{"X", "Y", "Z", "S1"} {
			cfg.logf("fig6: CREATE INDEX on %s", attr)
			if err := tbl.CreateIndex(attr); err != nil {
				db.Close()
				return nil, nil, spec, err
			}
		}
		if err := setMarker(dir, "rowstore"); err != nil {
			db.Close()
			return nil, nil, spec, err
		}
	}
	return svc, db, spec, nil
}

// RunFig6 reproduces Figure 6: execution time of the five Figure 7
// queries on the PostgreSQL-like rowstore vs datavirt (STORM).
func RunFig6(cfg Config) (*Table, error) {
	svc, db, spec, err := setupFig6(cfg)
	if err != nil {
		return nil, err
	}
	defer db.Close()

	t := &Table{
		ID:     "fig6",
		Title:  "Titan queries: rowstore (PostgreSQL stand-in) vs datavirt",
		Header: []string{"query", "rows", "datavirt_ms", "rowstore_ms", "rowstore_plan", "winner"},
	}
	raw := int64(spec.Points) * gen.TitanRecordBytes
	loaded := db.Table("TITAN").SizeBytes()
	t.Notes = append(t.Notes,
		fmt.Sprintf("raw flat files: %.1f MB; loaded rowstore (heap+indexes): %.1f MB (%.1fx) — paper: 6 GB -> 18 GB (3x)",
			float64(raw)/1e6, float64(loaded)/1e6, float64(loaded)/float64(raw)))

	for _, q := range titanQueries(spec.XMax, spec.YMax, spec.ZMax) {
		dvSQL := q.SQL("TitanData")
		pgSQL := q.SQL("TITAN")

		var dvRows int64
		dvTime, err := timeBest(cfg, func() error {
			prep, err := prepare(svc, dvSQL)
			if err != nil {
				return err
			}
			dvRows, _, err = countRows(prep, core.Options{})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fig6 q%d datavirt: %w", q.No, err)
		}

		var pgRows int64
		var plan string
		pgTime, err := timeBest(cfg, func() error {
			pgRows = 0
			stats, err := db.QueryStream(pgSQL, func(table.Row) error {
				pgRows++
				return nil
			})
			plan = stats.Plan
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fig6 q%d rowstore: %w", q.No, err)
		}
		if dvRows != pgRows {
			return nil, fmt.Errorf("fig6 q%d: datavirt %d rows, rowstore %d rows", q.No, dvRows, pgRows)
		}
		winner := "datavirt"
		if pgTime < dvTime {
			winner = "rowstore"
		}
		t.AddRow(fmt.Sprintf("Q%d", q.No), fmt.Sprint(dvRows), ms(dvTime), ms(pgTime), plan, winner)
	}
	return t, nil
}
