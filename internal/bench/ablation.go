package bench

import (
	"context"
	"fmt"
	"path/filepath"

	"datavirt/internal/core"
	"datavirt/internal/extractor"
	"datavirt/internal/filter"
	"datavirt/internal/gen"
	"datavirt/internal/index"
	"datavirt/internal/metadata"
	"datavirt/internal/obs"
	"datavirt/internal/query"
	"datavirt/internal/sqlparser"
	"datavirt/internal/table"
)

// RunAblationIndex isolates the value of the generated index functions:
// the same query executed with chunk pruning (ranges fed to the index)
// and without (empty ranges — every chunk read, the WHERE clause applied
// only as a per-row filter). This quantifies DESIGN.md's claim that the
// index check in Process_File_Groups, not the extractor, delivers the
// subsetting speedups.
func RunAblationIndex(cfg Config) (*Table, error) {
	svc, db, spec, err := setupFig6(cfg)
	if err != nil {
		return nil, err
	}
	db.Close()
	dir := filepath.Join(cfg.WorkDir, "fig6")

	q := titanQueries(spec.XMax, spec.YMax, spec.ZMax)[1] // the spatial window query
	sql := q.SQL("TitanData")
	parsed, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	sch := svc.Schema()
	reg := filter.NewRegistry()
	pred, err := query.CompilePredicate(parsed.Where, func(name string) (int, bool) {
		i := sch.Index(name)
		return i, i >= 0
	}, reg)
	if err != nil {
		return nil, err
	}
	loader := func(fi metadata.FileInstance) (*index.ChunkIndex, error) {
		return index.ReadFile(filepath.Join(dir, fi.Node(), filepath.FromSlash(fi.Path())))
	}
	resolver := core.NodeResolver(dir)

	t := &Table{
		ID:     "ablation-index",
		Title:  "Chunk-index pruning on vs off (Titan spatial window query)",
		Header: []string{"mode", "afcs", "bytes_read_MB", "rows_out", "time_ms"},
	}
	run := func(mode string, ranges query.Ranges) error {
		afcs, err := svc.Plan().Generate(ranges, sch.Names(), loader)
		if err != nil {
			return err
		}
		var rows int64
		var stats obs.QueryStats
		dur, err := timeBest(cfg, func() error {
			rows = 0
			var e error
			stats, e = extractor.RunBatchesContext(context.Background(), afcs, resolver, extractor.Options{
				Cols: sch.Attrs(), Pred: pred,
			}, func(batch []table.Row) error { rows += int64(len(batch)); return nil })
			return e
		})
		if err != nil {
			return err
		}
		t.AddRow(mode, fmt.Sprint(len(afcs)), fmt.Sprintf("%.1f", float64(stats.BytesRead)/1e6),
			fmt.Sprint(rows), ms(dur))
		return nil
	}
	if err := run("index-on", query.ExtractRanges(parsed.Where)); err != nil {
		return nil, fmt.Errorf("ablation-index on: %w", err)
	}
	if err := run("index-off", query.Ranges{}); err != nil {
		return nil, fmt.Errorf("ablation-index off: %w", err)
	}
	if len(t.Rows) == 2 && t.Rows[0][3] != t.Rows[1][3] {
		return nil, fmt.Errorf("ablation-index: row counts differ: %s vs %s", t.Rows[0][3], t.Rows[1][3])
	}
	t.Notes = append(t.Notes, "both modes apply the full WHERE clause per row; only chunk pruning differs")
	return t, nil
}

// RunAblationChunks compares chunked storage with a spatial index
// against a monolithic single-chunk file — the design choice behind the
// satellite application's layout (paper §2.2).
func RunAblationChunks(cfg Config) (*Table, error) {
	spec := fig6Spec(cfg)
	t := &Table{
		ID:     "ablation-chunk",
		Title:  "Chunked+indexed vs monolithic Titan storage (spatial window query)",
		Header: []string{"layout", "chunks", "rows", "time_ms"},
	}
	variants := []struct {
		name    string
		tile    [3]int
		sub     string
		altSeed int64
	}{
		{"chunked 16x16x8", [3]int{16, 16, 8}, "chunked", 604},
		{"monolithic 1x1x1", [3]int{1, 1, 1}, "mono", 604},
	}
	var refRows int64 = -1
	for _, v := range variants {
		s := spec
		s.TilesX, s.TilesY, s.TilesZ = v.tile[0], v.tile[1], v.tile[2]
		s.Seed = v.altSeed
		root, err := ensureDir(cfg, "ablation-chunk", v.sub)
		if err != nil {
			return nil, err
		}
		if !haveMarker(root, "data", s) {
			cfg.logf("ablation-chunk: generating %s", v.name)
			if _, err := gen.WriteTitan(root, s); err != nil {
				return nil, err
			}
			if err := setMarker(root, "data", s); err != nil {
				return nil, err
			}
		}
		svc, err := core.Open(filepath.Join(root, "titan.dvd"), root)
		if err != nil {
			return nil, err
		}
		sql := titanQueries(s.XMax, s.YMax, s.ZMax)[1].SQL("TitanData")
		prep, err := prepare(svc, sql)
		if err != nil {
			return nil, err
		}
		var rows int64
		dur, err := timeBest(cfg, func() error {
			var err error
			rows, _, err = countRows(prep, core.Options{})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("ablation-chunk %s: %w", v.name, err)
		}
		if refRows < 0 {
			refRows = rows
		} else if rows != refRows {
			return nil, fmt.Errorf("ablation-chunk: %s returned %d rows, expected %d", v.name, rows, refRows)
		}
		t.AddRow(v.name, fmt.Sprint(len(prep.AFCs)), fmt.Sprint(rows), ms(dur))
	}
	return t, nil
}

// Verify double-checks cross-system row counts on a small sample —
// invoked by dvbench -verify before timing anything.
func Verify(cfg Config) error {
	quick := cfg
	quick.Quick = true
	quick.WorkDir = filepath.Join(cfg.WorkDir, "verify")
	svc, db, spec, err := setupFig6(quick)
	if err != nil {
		return err
	}
	defer db.Close()
	for _, q := range titanQueries(spec.XMax, spec.YMax, spec.ZMax) {
		cur, err := svc.QueryContext(context.Background(), q.SQL("TitanData"))
		if err != nil {
			return err
		}
		var dv int
		for cur.Next() {
			dv++
		}
		if err := cur.Close(); err != nil {
			return err
		}
		pg, _, err := db.Query(q.SQL("TITAN"))
		if err != nil {
			return err
		}
		if dv != len(pg) {
			return fmt.Errorf("verify: Q%d: datavirt %d rows, rowstore %d", q.No, dv, len(pg))
		}
	}
	return nil
}
