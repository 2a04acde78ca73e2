package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"

	"datavirt/internal/cache"
	"datavirt/internal/core"
	"datavirt/internal/filter"
	"datavirt/internal/metadata"
	"datavirt/internal/obs"
	"datavirt/internal/query"
	"datavirt/internal/schema"
	"datavirt/internal/sparse"
	"datavirt/internal/sqlparser"
	"datavirt/internal/table"
)

// layerSQL is the aggregate every workload's extractor.agg_rows_per_s
// and query.* replays use, so those numbers compare across workloads.
const layerSQL = "SELECT TIME, " + aggSelect + " WHERE SGAS > 0.3 GROUP BY TIME"

// replayBudget bounds each layer replay; sampleOps bounds how many
// distinct ops the per-query replays cover.
const (
	replayBudget = 300 * time.Millisecond
	sampleOps    = 24
)

// layerRun holds what the layer replays of one workload work on: its
// files, its running system, and the ops the traced pass just replayed.
type layerRun struct {
	w     *workload
	ds    *dataset
	sys   *system
	yard  *yardstick
	ops   []op
	quick bool
	// local is a private service over all of the dataset's files; the
	// per-query replays run on it so they do not disturb sys's caches.
	local *core.Service
	out   map[string]float64
}

// replayLayers times calls into each layer's public functions on the
// workload's own files and ops. Counts and ratios that come from the
// traced ops' Rows.Stats() are added by the caller.
func replayLayers(ctx context.Context, lr *layerRun) (map[string]float64, error) {
	lr.out = map[string]float64{}
	var err error
	if lr.local, err = lr.w.open(lr.ds); err != nil {
		return nil, err
	}
	defer lr.local.Close()
	for _, step := range []func(context.Context) error{
		lr.metadata, lr.parseAndPrepare, lr.perQuery, lr.sparse, lr.cache,
		lr.aggregate, lr.queryKernels, lr.codec, lr.cluster, lr.ceilings,
	} {
		if err := step(ctx); err != nil {
			return nil, err
		}
	}
	return lr.out, nil
}

func (lr *layerRun) iters(n int) int {
	if lr.quick {
		return 3
	}
	return n
}

// metadata: descriptor parse + compile, what every process start pays.
func (lr *layerRun) metadata(context.Context) error {
	var ferr error
	ds := repeat(0, lr.iters(50), lr.iters(50), func() {
		d, err := metadata.ParseFile(lr.ds.desc)
		if err == nil {
			var svc *core.Service
			if svc, err = core.Compile(d, core.NodeResolver(lr.ds.root)); err == nil {
				err = svc.Close()
			}
		}
		if err != nil {
			ferr = err
		}
	})
	lr.out["metadata.open_ms"] = median(durations(ds, ms))
	return ferr
}

// parseAndPrepare replays the traced ops' SQL through the parser and
// through prepare on a service with an empty plan cache, splitting
// prepares by whether they hit it.
func (lr *layerRun) parseAndPrepare(ctx context.Context) error {
	svc, err := core.Open(lr.ds.desc, lr.ds.root)
	if err != nil {
		return err
	}
	defer svc.Close()
	var parse, hit, miss []time.Duration
	for _, o := range lr.ops {
		t0 := time.Now()
		q, err := sqlparser.Parse(o.sql)
		parse = append(parse, time.Since(t0))
		if err != nil {
			return err
		}
		t0 = time.Now()
		prep, err := svc.PrepareParsedContext(ctx, q)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if h, _ := prep.PlanCacheCounters(); h > 0 {
			hit = append(hit, d)
		} else {
			miss = append(miss, d)
		}
	}
	lr.out["sqlparser.parse_us"] = median(durations(parse, us))
	lr.out["core.prepare_hit_us"] = median(durations(hit, us))
	lr.out["core.prepare_miss_us"] = median(durations(miss, us))
	return nil
}

// neededAttrs lists, in schema order, the attributes a prepared query
// reads: what core hands afc.Plan.Generate.
func neededAttrs(sch *schema.Schema, prep *core.Prepared) []string {
	set := map[string]bool{}
	cols := prep.Cols
	if prep.Agg != nil {
		cols = prep.Agg.InputColumns()
	}
	for _, c := range cols {
		set[c] = true
	}
	for _, c := range sqlparser.ExprColumns(prep.Query.Where) {
		set[c] = true
	}
	var out []string
	for _, n := range sch.Names() {
		if set[n] {
			out = append(out, n)
		}
	}
	return out
}

// perQuery replays a sample of distinct ops layer by layer: AFC
// generation, the extractor through the callback API (no-op emit), the
// same Prepared through the cursor, and the bytes sparse pruning saves.
func (lr *layerRun) perQuery(ctx context.Context) error {
	var sample []*core.Prepared
	for _, o := range distinct(lr.ops, sampleOps) {
		prep, err := lr.local.PrepareContext(ctx, o.sql)
		if err != nil {
			return err
		}
		sample = append(sample, prep)
	}
	var generate []time.Duration
	var callback, cursor time.Duration
	var rows, bytes, pruned, unpruned int64
	reps := lr.iters(3)
	if lr.ds.rows > 100000 && len(sample) < 4 {
		reps = lr.iters(10) // few, large queries: more repeats for a steady median
	}
	for _, prep := range sample {
		needed := neededAttrs(lr.local.Schema(), prep)
		var ferr error
		generate = append(generate, repeat(0, reps, reps, func() {
			if _, err := lr.local.Plan().Generate(prep.Ranges, needed, nil); err != nil {
				ferr = err
			}
		})...)
		if ferr != nil {
			return ferr
		}
		var cb, cur []time.Duration
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			st, err := prep.RunContext(ctx, lr.w.opt, discard)
			cb = append(cb, time.Since(t0))
			if err != nil {
				return err
			}
			if i == 0 {
				rows += st.RowsScanned
				bytes += st.BytesRead
				pruned += st.BytesRead
			}
			t0 = time.Now()
			cr, err := prep.QueryContext(ctx, lr.w.opt)
			if err != nil {
				return err
			}
			for cr.Next() {
			}
			err = cr.Close()
			cur = append(cur, time.Since(t0))
			if err != nil {
				return err
			}
		}
		callback += time.Duration(median(durations(cb, ns)))
		cursor += time.Duration(median(durations(cur, ns)))
		opt := lr.w.opt
		opt.NoSparse = true
		st, err := prep.RunContext(ctx, opt, discard)
		if err != nil {
			return err
		}
		unpruned += st.BytesRead
	}
	lr.out["afc.generate_us"] = median(durations(generate, us))
	lr.out["core.cursor_overhead"] = float64(cursor) / float64(callback)
	lr.out["extractor.rows_per_s"] = float64(rows) / callback.Seconds()
	lr.out["extractor.mb_per_s"] = float64(bytes) / 1e6 / callback.Seconds()
	if unpruned > 0 {
		lr.out["sparse.bytes_saved_ratio"] = 1 - float64(pruned)/float64(unpruned)
	}
	return nil
}

// sparse: what the service pays per data file to load its sidecar —
// a decode where one exists, a failed open where none does.
func (lr *layerRun) sparse(context.Context) error {
	files, err := lr.ds.dataFiles()
	if err != nil {
		return err
	}
	var loads []time.Duration
	for _, f := range files {
		var ferr error
		loads = append(loads, repeat(0, lr.iters(10), lr.iters(10), func() {
			if _, err := sparse.ReadFile(sparse.SidecarPath(f)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				ferr = err
			}
		})...)
		if ferr != nil {
			return ferr
		}
	}
	lr.out["sparse.load_us"] = median(durations(loads, us))
	return nil
}

// cache: a sequential sweep of the data files through a fresh block
// cache configured like the workload's, cold and then again.
func (lr *layerRun) cache(context.Context) error {
	files, err := lr.ds.dataFiles()
	if err != nil {
		return err
	}
	c := cache.New(lr.w.cacheConfig())
	defer c.Close()
	buf := make([]byte, 256<<10)
	sweep := func() (float64, error) {
		var n int64
		t0 := time.Now()
		for _, f := range files {
			r, err := c.Open(f)
			if err != nil {
				return 0, err
			}
			for off := int64(0); ; {
				k, err := r.ReadAt(buf, off)
				n += int64(k)
				off += int64(k)
				if err == io.EOF {
					break
				}
				if err != nil {
					r.Release()
					return 0, err
				}
			}
			r.Release()
		}
		return float64(n) / 1e6 / time.Since(t0).Seconds(), nil
	}
	if lr.out["cache.cold_mb_s"], err = sweep(); err != nil {
		return err
	}
	lr.out["cache.warm_mb_s"], err = sweep()
	return err
}

// aggregate: the extractor folding into partials, no finalize.
func (lr *layerRun) aggregate(ctx context.Context) error {
	prep, err := lr.local.PrepareContext(ctx, layerSQL)
	if err != nil {
		return err
	}
	var rows int64
	var ferr error
	ds := repeat(replayBudget, 3, lr.iters(10), func() {
		_, st, err := prep.RunAggPartialContext(ctx, lr.w.opt)
		if err != nil {
			ferr = err
		}
		rows = st.RowsScanned
	})
	lr.out["extractor.agg_rows_per_s"] = float64(rows) / median(durations(ds, time.Duration.Seconds))
	return ferr
}

const batchRows = 4096

// queryKernels times the vector filter and the aggregate fold on
// 4096-row batches, and a partial-state merge through its wire form.
func (lr *layerRun) queryKernels(context.Context) error {
	q, err := sqlparser.Parse(layerSQL)
	if err != nil {
		return err
	}
	sch := lr.local.Schema()
	plan, err := query.BuildAggPlan(q, sch)
	if err != nil {
		return err
	}
	// The working layout: the attributes the query touches, schema order.
	var work []schema.Attribute
	idx := map[string]int{}
	touched := map[string]bool{}
	for _, c := range append(plan.InputColumns(), sqlparser.ExprColumns(q.Where)...) {
		touched[c] = true
	}
	for _, a := range sch.Attrs() {
		if touched[a.Name] {
			idx[a.Name] = len(work)
			work = append(work, a)
		}
	}
	lookup := func(name string) (int, bool) { i, ok := idx[name]; return i, ok }
	if err := plan.Bind(lookup); err != nil {
		return err
	}
	pred, err := query.CompileVectorPredicate(q.Where, lookup, filter.NewRegistry())
	if err != nil {
		return err
	}
	batch := &query.Batch{}
	batch.Reset(len(work), batchRows)
	d := draw{s: 1}
	for c, a := range work {
		batch.Cols[c].Kind = a.Kind
		if a.Kind.Integral() {
			iv := batch.IntCol(c)
			for r := range iv {
				iv[r] = int64(1 + r%128)
				batch.Cols[c].F[r] = float64(iv[r])
			}
			continue
		}
		for r := range batch.Cols[c].F {
			batch.Cols[c].F[r] = d.float()
		}
	}
	var scr query.VectorScratch
	var sel []int32
	filterNS := repeat(replayBudget/2, 10, 1<<20, func() {
		sel = pred.Eval(batch, query.Identity(sel, batchRows), &scr)
	})
	lr.out["query.filter_ns_per_row"] = median(durations(filterNS, ns)) / batchRows
	all := query.Identity(nil, batchRows)
	state := query.NewAggState(plan)
	foldNS := repeat(replayBudget/2, 10, 1<<20, func() { state.ObserveBatch(batch, all) })
	lr.out["query.fold_ns_per_row"] = median(durations(foldNS, ns)) / batchRows
	var ferr error
	mergeUS := repeat(replayBudget/2, 10, 1<<20, func() {
		into := query.NewAggState(plan)
		for _, chunk := range state.EncodeChunks(0) {
			if err := into.MergeEncoded(chunk); err != nil {
				ferr = err
			}
		}
	})
	lr.out["query.merge_us_per_group"] = median(durations(mergeUS, us)) / float64(state.Groups())
	return ferr
}

// codec: the fixed-width row codec the cluster ships rows in.
func (lr *layerRun) codec(context.Context) error {
	sch := lr.local.Schema()
	codec := table.NewCodec(sch)
	rows := make([]table.Row, batchRows)
	d := draw{s: 2}
	for r := range rows {
		rows[r] = make(table.Row, sch.NumAttrs())
		for c, a := range sch.Attrs() {
			rows[r][c] = schema.KindValue(a.Kind, float64(float32(100*d.float())))
		}
	}
	var buf []byte
	var ferr error
	enc := repeat(replayBudget/2, 10, 1<<20, func() {
		buf = buf[:0]
		for _, row := range rows {
			var err error
			if buf, err = codec.Append(buf, row); err != nil {
				ferr = err
			}
		}
	})
	var row table.Row
	dec := repeat(replayBudget/2, 10, 1<<20, func() {
		rest := buf
		for len(rest) > 0 {
			var err error
			if row, rest, err = codec.Decode(row, rest); err != nil {
				ferr = err
				return
			}
		}
	})
	lr.out["table.encode_ns_per_row"] = median(durations(enc, ns)) / batchRows
	lr.out["table.decode_ns_per_row"] = median(durations(dec, ns)) / batchRows
	return ferr
}

// cluster: what the wire adds — a coordinator query against the slowest
// node running its share of the same query locally. Workloads that run
// locally are replayed through node servers started over their files
// just for this, one per partition.
func (lr *layerRun) cluster(ctx context.Context) error {
	sys := lr.sys
	if sys.coord == nil {
		w := *lr.w
		w.cluster, w.sidecars = true, false
		var err error
		if sys, err = setup(ctx, &w, lr.ds, nil); err != nil {
			return err
		}
		defer sys.close()
	}
	var overhead []float64
	var sent int64
	var net time.Duration
	for _, o := range distinct(lr.ops, sampleOps) {
		t0 := time.Now()
		res, err := sys.coord.QueryFuncContext(ctx, o.sql, discard)
		viaCoord := time.Since(t0)
		if err != nil {
			return err
		}
		sent += res.SentBytes
		net += res.QueryStats.NetTime
		var slowest time.Duration
		for i, svc := range sys.nodeSvcs {
			prep, err := svc.PrepareContext(ctx, o.sql)
			if err != nil {
				return err
			}
			opt := lr.w.opt
			opt.NodeFilter = sys.nodes[i].Name()
			t0 := time.Now()
			if prep.Agg != nil {
				_, _, err = prep.RunAggPartialContext(ctx, opt)
			} else {
				_, err = prep.RunContext(ctx, opt, discard)
			}
			if d := time.Since(t0); d > slowest {
				slowest = d
			}
			if err != nil {
				return err
			}
		}
		overhead = append(overhead, ms(viaCoord-slowest))
	}
	lr.out["cluster.overhead_ms"] = median(overhead)
	lr.out["cluster.wire_mb_s"] = float64(sent) / 1e6 / net.Seconds()
	return nil
}

// ceilings: the denominators — the hand-written extractor on the L0
// yardstick files, and reading and copying the workload's own bytes.
func (lr *layerRun) ceilings(ctx context.Context) error {
	var ferr error
	hand := repeat(replayBudget, 3, lr.iters(10), func() {
		if _, err := lr.yard.hand.Query(yardstickSQL, discard); err != nil {
			ferr = err
		}
	})
	if ferr != nil {
		return ferr
	}
	lr.out["handwritten.rows_per_s"] = float64(lr.yard.ds.rows) / median(durations(hand, time.Duration.Seconds))

	files, err := lr.ds.dataFiles()
	if err != nil {
		return err
	}
	buf := make([]byte, 1<<20)
	read := repeat(replayBudget, 3, lr.iters(5), func() {
		for _, f := range files {
			if err := readAll(f, buf); err != nil {
				ferr = err
			}
		}
	})
	if ferr != nil {
		return ferr
	}
	lr.out["raw.read_mb_s"] = float64(lr.ds.bytes) / 1e6 / median(durations(read, time.Duration.Seconds))
	lr.out["extractor.frac_of_raw"] = lr.out["extractor.mb_per_s"] / lr.out["raw.read_mb_s"]

	src, dst := make([]byte, 32<<20), make([]byte, 32<<20)
	cp := repeat(replayBudget, 3, lr.iters(20), func() { copy(dst, src) })
	lr.out["raw.memcpy_mb_s"] = float64(len(src)) / 1e6 / median(durations(cp, time.Duration.Seconds))
	return nil
}

func readAll(path string, buf []byte) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for {
		if _, err := io.ReadFull(f, buf); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil
			}
			return fmt.Errorf("reading %s: %w", path, err)
		}
	}
}

// statLayers derives the per-layer counts and ratios from the traced
// ops' Rows.Stats().
func statLayers(out map[string]float64, stats []*obs.QueryStats) {
	var sum obs.QueryStats
	for _, st := range stats {
		sum.Add(*st)
	}
	n := float64(len(stats))
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	out["core.plan_hit_ratio"] = ratio(sum.PlanCacheHits, sum.PlanCacheMisses)
	out["afc.chunks_per_query"] = float64(sum.ChunksPlanned) / n
	out["sparse.blocks_skipped"] = float64(sum.BlocksSkipped)
	out["cache.hit_ratio"] = ratio(sum.CacheHits, sum.CacheMisses)
	out["cache.fs_bytes_per_query"] = float64(sum.FSBytesRead) / n
	out["cluster.shed"] = float64(sum.ShedQueries)
	out["cluster.redispatches"] = float64(sum.LegRedispatches)
}
