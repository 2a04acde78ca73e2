// Command benchmark is the repo's yardstick: four workloads that load
// different layers, end-to-end metrics with regression bounds measured
// with tracing off, a traced pass that yields per-layer metrics, and a
// compare gate between two output files. See README.md.
//
//	bash benchmark/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-quick] [-workdir dir] [-out file]
//	bash benchmark/run.sh -compare old.json new.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"datavirt/internal/cache"
	"datavirt/internal/obs"
)

type config struct {
	workloads []*workload
	seed      int64
	seconds   float64
	trace     bool
	quick     bool
	// workdir holds the generated datasets; keep leaves them for reuse.
	workdir string
	keep    bool
	out     string
	// rounds split the timed section; setups is how often set-up is
	// repeated for setup_s; pairs is generated/hand-written scan pairs
	// per round.
	rounds, setups, pairs int
	maxClients            int
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "all", "workload to run, or all (rounds interleaved across workloads)")
		seed    = flag.Int64("seed", 1, "seed of the generated data and query parameters")
		secs    = flag.Float64("seconds", 10, "length of each workload's timed section")
		trace   = flag.Int("trace", 0, "1 replays each workload's first ops with spans and emits the per-layer metrics")
		quick   = flag.Bool("quick", false, "tiny datasets and short sections (smoke tests)")
		workdir = flag.String("workdir", "", "keep datasets here and reuse them (default: a temporary directory under .bench_build)")
		out     = flag.String("out", "", "output file (default benchmark/out/bench.json, or layers.json with -trace 1)")
		compare = flag.Bool("compare", false, "compare two output files: -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare old.json new.json")
			return 2
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 || flag.NArg() != 0 || *secs <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1, -seconds is positive, and there are no positional arguments")
		return 2
	}
	cfg := &config{seed: *seed, seconds: *secs, trace: *trace == 1, quick: *quick, workdir: *workdir, keep: *workdir != "",
		out: *out, rounds: 5, setups: 5, pairs: 8}
	if cfg.quick {
		cfg.setups, cfg.pairs = 2, 2
	}
	if *name == "all" {
		cfg.workloads = workloads
	} else if w := lookupWorkload(*name); w != nil {
		cfg.workloads = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if cfg.out == "" {
		cfg.out = filepath.Join("benchmark", "out", "bench.json")
		if cfg.trace {
			cfg.out = filepath.Join("benchmark", "out", "layers.json")
		}
	}
	// All load comes from this process: as many clients as the machine
	// has cores, at most four, and one P per client.
	cfg.maxClients = runtime.NumCPU()
	if cfg.maxClients > 4 {
		cfg.maxClients = 4
	}
	runtime.GOMAXPROCS(cfg.maxClients)

	d, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := writeJSON(cfg.out, d); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := d.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// state is one workload made ready to measure.
type state struct {
	w      *workload
	seed   draw
	ds     *dataset
	sys    *system
	oracle *oracle
	setups []float64 // seconds, one per repeated set-up
	next   atomic.Int64
	rounds []round
	ratios []float64
}

func (st *state) close() {
	if st.sys != nil {
		st.sys.close()
	}
	if st.oracle != nil {
		st.oracle.close()
	}
}

func run(ctx context.Context, cfg *config) (d *doc, err error) {
	if !cfg.keep {
		base := filepath.Join(".bench_build", "work")
		if err := os.MkdirAll(base, 0o755); err != nil {
			return nil, err
		}
		if cfg.workdir, err = os.MkdirTemp(base, "run-"); err != nil {
			return nil, err
		}
		defer func() {
			if rerr := os.RemoveAll(cfg.workdir); err == nil {
				err = rerr
			}
		}()
	}
	d = newDoc(cfg)

	// The yardstick files are scan.full's; workloads on other layouts
	// generate them too, so gen_over_hand means the same everywhere.
	yspec := workloads[0].spec
	if cfg.quick {
		yspec = workloads[0].quick
	}
	yspec.Seed = cfg.seed
	yds, err := openDataset(cfg.workdir, "L0", yspec)
	if err != nil {
		return nil, err
	}
	yard, err := newYardstick(ctx, yds)
	if err != nil {
		return nil, err
	}
	defer yard.close()

	var states []*state
	defer func() {
		for _, st := range states {
			st.close()
		}
	}()
	for _, w := range cfg.workloads {
		st, err := prepare(ctx, cfg, w)
		if st != nil {
			states = append(states, st)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if st.ds.root == yds.root {
			st.ds.datagen = yds.datagen // its files are the yardstick's, written above
		}
	}
	for _, st := range states {
		wd := &workloadDoc{Name: st.w.name, Why: st.w.why, Layout: st.w.layout, Clients: st.w.clients(cfg.maxClients),
			DatasetRows: st.ds.rows, DatasetBytes: st.ds.bytes, CacheBytes: st.w.cacheBytes}
		if wd.CacheBytes == 0 {
			wd.CacheBytes = cache.DefaultMaxBytes
		}
		d.Workloads = append(d.Workloads, wd)
	}
	if cfg.trace {
		for i, st := range states {
			if err := tracedPass(ctx, cfg, st, yard, d.Workloads[i]); err != nil {
				return nil, fmt.Errorf("%s: %w", st.w.name, err)
			}
		}
		return d, nil
	}

	// Rounds go round-robin across workloads so machine drift hits all
	// of them alike; each round is followed by its yardstick pairs.
	per := time.Duration(cfg.seconds / float64(cfg.rounds) * float64(time.Second))
	for r := 0; r < cfg.rounds; r++ {
		for _, st := range states {
			st.rounds = append(st.rounds, runRound(ctx, st.sys, st.w, st.seed, &st.next, st.w.clients(cfg.maxClients), per))
			ratio, err := yard.ratio(ctx, cfg.pairs)
			if err != nil {
				return nil, err
			}
			st.ratios = append(st.ratios, ratio)
		}
	}
	for i, st := range states {
		summarizeRounds(ctx, st, d.Workloads[i])
	}
	return d, nil
}

// prepare generates the workload's dataset, sets the system up
// cfg.setups times (keeping the last), and builds the oracle.
func prepare(ctx context.Context, cfg *config, base *workload) (*state, error) {
	w := *base
	if cfg.quick {
		w.spec = w.quick
		w.traceOps = w.traceOps/20 + 4
	}
	w.spec.Seed = cfg.seed
	st := &state{w: &w, seed: draw{s: uint64(cfg.seed)}}
	var err error
	if st.ds, err = openDataset(cfg.workdir, w.layout, w.spec); err != nil {
		return nil, err
	}
	warm := warmOps(&w, st.seed)
	for i := 0; i < cfg.setups; i++ {
		if st.sys != nil {
			st.sys.close()
		}
		t0 := time.Now()
		if st.sys, err = setup(ctx, &w, st.ds, warm); err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		st.setups = append(st.setups, time.Since(t0).Seconds())
	}
	if st.oracle, err = newOracle(st.ds); err != nil {
		return st, err
	}
	return st, nil
}

// summarizeRounds verifies the rounds' results and fills in the
// workload's end-to-end metrics.
func summarizeRounds(ctx context.Context, st *state, wd *workloadDoc) {
	failed, firstErr := verify(ctx, st.oracle, st.w, st.seed, st.rounds)
	if firstErr != nil {
		wd.FirstError = firstErr.Error()
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", st.w.name, firstErr)
	}
	var p50, qps, all []float64
	for ri, r := range st.rounds {
		var lats []float64
		for _, s := range r.samples {
			lats = append(lats, ms(s.lat))
		}
		all = append(all, lats...)
		p50 = append(p50, median(lats))
		qps = append(qps, float64(len(r.samples)-failed[ri])/r.wall.Seconds())
		wd.Attempted += len(r.samples)
		wd.Failed += failed[ri]
	}
	for _, def := range endToEnd {
		rounds := map[string][]float64{"lat_p50_ms": p50, "queries_per_s": qps, "gen_over_hand": st.ratios, "setup_s": st.setups}[def.Name]
		wd.Metrics = append(wd.Metrics, overRounds(def, rounds))
	}
	sort.Float64s(all)
	pct, tailMS := tail(all)
	extra := map[string]float64{
		"lat_tail_ms": tailMS, "tail_pct": pct, "samples": float64(len(all)),
		"datagen_s": st.ds.datagen.Seconds(), "error_rate": float64(wd.Failed) / float64(wd.Attempted),
	}
	if pct >= 95 {
		extra["lat_p95_ms"] = quantile(all, 0.95)
	}
	for _, def := range ungated {
		if v, ok := extra[def.Name]; ok {
			wd.Ungated = append(wd.Ungated, measured{metricDef: def, Value: v})
		}
	}
}

// traceFile is what the traced pass writes per workload.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Ops      int     `json:"ops"`
	Shares   []share `json:"span_shares"`
	Spans    []span  `json:"spans"`
}

// tracedPass replays the workload's first ops twice — plain, then with
// a span around every call into a layer — and runs the layer replays.
func tracedPass(ctx context.Context, cfg *config, st *state, yard *yardstick, wd *workloadDoc) error {
	n := st.w.traceOps
	ops := firstOps(st.w, st.seed, n)
	clients := st.w.clients(cfg.maxClients)

	plain := make([]float64, n)
	errs := make([]error, n)
	forEachOp(clients, n, func(i int) {
		t0 := time.Now()
		_, errs[i] = drain(ctx, st.sys, ops[i].sql)
		plain[i] = ms(time.Since(t0))
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}

	// References are computed before the traced pass, so a verify span
	// is a comparison and the oracle's scans do not compete with the
	// other clients' traced ops.
	for _, o := range ops {
		if _, err := st.oracle.want(ctx, o); err != nil {
			return err
		}
	}
	tr := newTracer()
	traced := make([]float64, n)
	stats := make([]*obs.QueryStats, n)
	forEachOp(clients, n, func(i int) {
		var lat time.Duration
		lat, stats[i], errs[i] = tracedOp(ctx, tr, st.sys, st.oracle, ops[i], int64(i))
		traced[i] = ms(lat)
	})
	wd.Attempted = n
	var ok []*obs.QueryStats
	for i, err := range errs {
		if err != nil {
			wd.Failed++
			if wd.FirstError == "" {
				wd.FirstError = err.Error()
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", st.w.name, err)
			}
			continue
		}
		ok = append(ok, stats[i])
	}
	if len(ok) == 0 {
		return fmt.Errorf("every traced op failed: %s", wd.FirstError)
	}

	self, root, err := selfTimes(tr.spans)
	if err != nil {
		return err
	}
	wd.SpanShares = shares(self, root)
	tf := traceFile{Workload: st.w.name, Seed: cfg.seed, Ops: n, Shares: wd.SpanShares, Spans: tr.spans}
	if err := writeJSON(filepath.Join(filepath.Dir(cfg.out), "trace-"+st.w.name+".json"), tf); err != nil {
		return err
	}

	out, err := replayLayers(ctx, &layerRun{w: st.w, ds: st.ds, sys: st.sys, yard: yard, ops: ops, quick: cfg.quick})
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	statLayers(out, ok)
	out["trace.overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
	for _, def := range perLayer {
		wd.Metrics = append(wd.Metrics, measured{metricDef: def, Value: out[def.Name]})
	}
	return nil
}

// forEachOp calls f(0..n-1) from clients closed-loop goroutines.
func forEachOp(clients, n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}
