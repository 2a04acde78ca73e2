package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"datavirt/internal/cache"
	"datavirt/internal/cluster"
	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/metadata"
	"datavirt/internal/sparse"
)

// sidecarBlock is the zone-map granularity of select.window's sidecars;
// its cache blocks and extraction buffers use the same size so a
// skipped block is a skipped fetch.
const sidecarBlock = 64 << 10

// op is one query of a workload: the only thing the program receives.
type op struct {
	sql string
	// agg marks aggregate queries, which the hand-written extractor
	// cannot answer.
	agg bool
}

// workload is one traffic mix. Everything that varies between runs is
// drawn from the seed; the shape (layout, sizes, mix) is fixed here.
type workload struct {
	name string
	// why is recorded in BENCHMARK.json and the README: which layers the
	// workload loads and which it bypasses.
	why    string
	layout string
	spec   gen.IparsSpec
	// quick is the dataset used by -quick (smoke tests).
	quick gen.IparsSpec
	// cluster runs the ops through two node servers and a coordinator,
	// with every available client; local workloads use one client.
	cluster bool
	// sidecars builds .dvsx sparse indexes as part of set-up.
	sidecars bool
	// cacheBytes is the service's block-cache budget (0 = the default).
	cacheBytes int64
	opt        core.Options
	// opAt returns the i-th op of the run's sequence; hot lists the ops
	// the warm-up pass of set-up runs once.
	opAt func(w *workload, d draw, i int64) op
	hot  func(w *workload, d draw) []op
	// traceOps is how many leading ops the traced pass replays.
	traceOps int
}

// cacheConfig is the block-cache configuration the workload's services
// run with (the zero Config is the program's default).
func (w *workload) cacheConfig() cache.Config {
	if w.cacheBytes == 0 {
		return cache.Config{}
	}
	return cache.Config{MaxBytes: w.cacheBytes, BlockBytes: sidecarBlock}
}

// open compiles a service over ds the way the workload runs it.
func (w *workload) open(ds *dataset) (*core.Service, error) {
	svc, err := core.Open(ds.desc, ds.root)
	if err == nil && w.cacheBytes > 0 {
		svc.SetCacheConfig(w.cacheConfig())
	}
	return svc, err
}

func (w *workload) clients(max int) int {
	if w.cluster {
		return max
	}
	return 1
}

var workloads = []*workload{
	{
		name: "scan.full",
		why: "full-table cursor scan of a cache-resident L0 dataset: column decode, row gather and cursor delivery " +
			"do the work; parse, plan, index and sparse do none",
		layout:   "L0",
		spec:     gen.IparsSpec{Realizations: 4, TimeSteps: 128, GridPoints: 1000, Partitions: 1, Attrs: 17},
		quick:    gen.IparsSpec{Realizations: 2, TimeSteps: 8, GridPoints: 250, Partitions: 1, Attrs: 17},
		opAt:     func(*workload, draw, int64) op { return op{sql: "SELECT * FROM IparsData"} },
		traceOps: 20,
	},
	{
		name: "agg.group",
		why: "pushed-down GROUP BY aggregates over the same L0 files: vector filter kernels and the AggState fold, " +
			"5 of 22 columns, no row materialised and no cursor traffic",
		layout:   "L0",
		spec:     gen.IparsSpec{Realizations: 4, TimeSteps: 128, GridPoints: 1000, Partitions: 1, Attrs: 17},
		quick:    gen.IparsSpec{Realizations: 2, TimeSteps: 8, GridPoints: 250, Partitions: 1, Attrs: 17},
		opAt:     aggGroupOp,
		traceOps: 100,
	},
	{
		name: "select.window",
		why: "small selective queries on layout I, sidecars, cache a fifth of the data, half hot half fresh: " +
			"the one place parse, prepare/plan cache, AFC generation, sparse pruning and cache misses show",
		layout:     "I",
		spec:       gen.IparsSpec{Realizations: 4, TimeSteps: 128, GridPoints: 2000, Partitions: 1, Attrs: 17},
		quick:      gen.IparsSpec{Realizations: 2, TimeSteps: 8, GridPoints: 4000, Partitions: 1, Attrs: 17},
		sidecars:   true,
		cacheBytes: 16 << 20,
		opt:        core.Options{BlockBytes: sidecarBlock},
		opAt:       selectWindowOp,
		hot: func(w *workload, d draw) []op {
			ops := make([]op, selectHot)
			for i := range ops {
				ops[i] = hotOp(w, d, i)
			}
			return ops
		},
		traceOps: 1000,
	},
	{
		name: "cluster.mixed",
		why: "two node servers over loopback TCP, closed-loop clients, 60% point/window rows, 25% pushed aggregates, " +
			"15% ~48k-row scans: row codec, frame protocol, flow control, admission and coordinator merge",
		layout:   "CLUSTER",
		spec:     gen.IparsSpec{Realizations: 2, TimeSteps: 64, GridPoints: 4000, Partitions: 2, Attrs: 17},
		quick:    gen.IparsSpec{Realizations: 2, TimeSteps: 16, GridPoints: 200, Partitions: 2, Attrs: 17},
		cluster:  true,
		opAt:     clusterMixedOp,
		traceOps: 1000,
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// draw is a splitmix64 stream: cheap enough to derive one per op, so
// op i is a pure function of (seed, i) and clients can claim ops in any
// order.
type draw struct{ s uint64 }

func (d *draw) next() uint64 {
	d.s += 0x9e3779b97f4a7c15
	z := d.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sub derives the independent stream of op i.
func (d draw) sub(i int64) draw {
	s := draw{d.s ^ uint64(i)*0xd1342543de82ef95}
	s.next()
	return s
}

func (d *draw) intn(n int) int         { return int(d.next() % uint64(n)) }
func (d *draw) float() float64         { return float64(d.next()>>11) / (1 << 53) }
func (d *draw) between(lo, hi int) int { return lo + d.intn(hi-lo+1) }

const aggSelect = "COUNT(*), SUM(SOIL), AVG(POIL), MAX(OILVX) FROM IparsData"

// aggGroupOp alternates the two GROUP BY forms. The SQL does not depend
// on the seed — only the data does — so every run folds the same share
// of rows and both plans stay cached.
func aggGroupOp(_ *workload, _ draw, i int64) op {
	key := "TIME"
	if i%2 == 1 {
		key = "REL"
	}
	return op{sql: fmt.Sprintf("SELECT %s, %s WHERE SGAS > 0.3 GROUP BY %s", key, aggSelect, key), agg: true}
}

// selectHot is the size of select.window's hot set.
const selectHot = 16

// selectWindowOp alternates hot-set ops (plan-cache hits, resident
// blocks) with fresh ones (plan miss, AFC generation, cold blocks,
// evictions), so every stretch of the sequence is half and half.
func selectWindowOp(w *workload, d draw, i int64) op {
	s := d.sub(i)
	if i%2 == 0 {
		return hotOp(w, d, s.intn(selectHot))
	}
	return selectTemplate(w, s, int(i/2))
}

func hotOp(w *workload, d draw, k int) op { return selectTemplate(w, d.sub(int64(-1-k)), k) }

// selectTemplate fills in template slot%3 — and, for the window
// template, a width of 1–3 steps from slot/3%3 — so the shape of the hot
// set and of any stretch of fresh ops is the same for every seed; only
// where each query lands is drawn.
func selectTemplate(w *workload, s draw, slot int) op {
	t := s.between(1, w.spec.TimeSteps)
	r := s.intn(w.spec.Realizations)
	switch slot % 3 {
	case 0: // narrow TIME window + residual filter
		hi := t + slot/3%3
		if hi > w.spec.TimeSteps {
			t, hi = t-(hi-w.spec.TimeSteps), w.spec.TimeSteps
		}
		return op{sql: fmt.Sprintf("SELECT * FROM IparsData WHERE REL = %d AND TIME >= %d AND TIME <= %d AND SOIL > %.4f",
			r, t, hi, 0.94+0.02*s.float())}
	case 1: // point read, 4-column projection
		return op{sql: fmt.Sprintf("SELECT X, Y, SOIL, POIL FROM IparsData WHERE TIME = %d AND REL = %d", t, r)}
	default: // sidecar-prunable slab off the top of the grid box
		_, _, zmax := w.spec.Coord(int64(w.spec.GridPoints - 1))
		return op{sql: fmt.Sprintf("SELECT X, Z, SWAT FROM IparsData WHERE Z >= %.3f AND TIME = %d", zmax-0.5-0.4*s.float(), t)}
	}
}

// clusterMix fixes the kind of every op by its position, so any twenty
// consecutive ops hold exactly 6 point reads, 6 windows, 5 aggregates
// and 3 medium scans: the mix does not drift between rounds, only the
// parameters are drawn.
const clusterMix = "pwapwmapwapwmapwapwm"

func clusterMixedOp(w *workload, d draw, i int64) op {
	s := d.sub(i)
	r := s.intn(w.spec.Realizations)
	T := w.spec.TimeSteps
	window := func(span int) (lo, hi int) {
		if span > T {
			span = T
		}
		lo = s.between(1, T-span+1)
		return lo, lo + span - 1
	}
	switch clusterMix[i%int64(len(clusterMix))] {
	case 'p': // point read with a residual filter
		return op{sql: fmt.Sprintf("SELECT X, Y, Z, SOIL, SGAS FROM IparsData WHERE REL = %d AND TIME = %d AND SOIL > %.4f",
			r, s.between(1, T), 0.5+0.4*s.float())}
	case 'w': // two-step window, selective
		lo, hi := window(2)
		return op{sql: fmt.Sprintf("SELECT * FROM IparsData WHERE REL = %d AND TIME >= %d AND TIME <= %d AND POIL > %.4f",
			r, lo, hi, 0.95+0.04*s.float())}
	case 'a': // pushed aggregate over an eight-step window ('A' frames)
		lo, hi := window(8)
		return op{sql: fmt.Sprintf("SELECT TIME, %s WHERE REL = %d AND TIME >= %d AND TIME <= %d AND SGAS > %.4f GROUP BY TIME",
			aggSelect, r, lo, hi, 0.2+0.2*s.float()), agg: true}
	default: // medium scan: twelve steps of one realization
		lo, hi := window(12)
		return op{sql: fmt.Sprintf("SELECT * FROM IparsData WHERE REL = %d AND TIME >= %d AND TIME <= %d", r, lo, hi)}
	}
}

// dataset is one generated Ipars study on disk.
type dataset struct {
	layout string
	spec   gen.IparsSpec
	root   string
	desc   string
	rows   int64
	bytes  int64
	// datagen is the time spent writing the files, zero when an earlier
	// workload or a reused -workdir already had them.
	datagen time.Duration
}

// dataFiles lists the dataset's data files (not descriptors, sidecars
// or markers).
func (ds *dataset) dataFiles() ([]string, error) {
	var files []string
	err := filepath.Walk(ds.root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		name := fi.Name()
		if fi.Mode().IsRegular() && !strings.HasSuffix(name, ".dvd") && !strings.HasSuffix(name, sparse.Suffix) && name != doneMarker {
			files = append(files, path)
		}
		return nil
	})
	return files, err
}

const doneMarker = ".generated"

// openDataset returns the dataset for (layout, spec) under workdir,
// generating it unless a complete copy is already there.
func openDataset(workdir, layout string, spec gen.IparsSpec) (*dataset, error) {
	root := filepath.Join(workdir, fmt.Sprintf("ipars-%s-r%dt%dg%dp%d-s%d", strings.ToLower(layout),
		spec.Realizations, spec.TimeSteps, spec.GridPoints, spec.Partitions, spec.Seed))
	ds := &dataset{layout: layout, spec: spec, root: root,
		desc: filepath.Join(root, "ipars_"+strings.ToLower(layout)+".dvd"), rows: spec.IparsTotalRows()}
	if _, err := os.Stat(filepath.Join(root, doneMarker)); err != nil {
		if err := os.RemoveAll(root); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := gen.WriteIpars(root, spec, layout); err != nil {
			return nil, fmt.Errorf("generating %s: %w", root, err)
		}
		// Flush the new files now, or the kernel writes them back in the
		// middle of some later timed section.
		files, err := ds.dataFiles()
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			if err := syncFile(f); err != nil {
				return nil, err
			}
		}
		ds.datagen = time.Since(start)
		if err := os.WriteFile(filepath.Join(root, doneMarker), nil, 0o644); err != nil {
			return nil, err
		}
	}
	files, err := ds.dataFiles()
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return nil, err
		}
		ds.bytes += fi.Size()
	}
	return ds, nil
}

func syncFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// system is a running program instance the clients query: a local
// service, or two node servers behind a coordinator.
type system struct {
	svc   *core.Service
	opt   core.Options
	coord *cluster.Coordinator
	nodes []*cluster.Node
	// nodeSvcs are the services behind nodes, index-aligned.
	nodeSvcs []*core.Service
}

// query starts one op the way a dvq/dvsubmit caller would.
func (s *system) query(ctx context.Context, sql string) (*core.Rows, error) {
	if s.coord != nil {
		return s.coord.QueryContext(ctx, sql)
	}
	return s.svc.QueryContextOptions(ctx, sql, s.opt)
}

func (s *system) close() {
	if s.coord != nil {
		s.coord.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
	for _, svc := range s.nodeSvcs {
		svc.Close()
	}
	if s.svc != nil {
		s.svc.Close()
	}
}

// setup does everything the program needs before it can answer this
// workload's queries — sidecar build, descriptor compile, node start
// and session dial, and one warm-up pass over the hot ops — and is
// what setup_s times.
func setup(ctx context.Context, w *workload, ds *dataset, warm []op) (*system, error) {
	if w.sidecars {
		d, err := metadata.ParseFile(ds.desc)
		if err != nil {
			return nil, err
		}
		if _, err := sparse.BuildDataset(d, sparse.NodeResolver(ds.root), sparse.BuildOptions{BlockBytes: sidecarBlock}, nil); err != nil {
			return nil, fmt.Errorf("building sidecars: %w", err)
		}
	}
	sys := &system{opt: w.opt}
	if w.cluster {
		addrs := map[string]string{}
		for i := 0; i < ds.spec.Partitions; i++ {
			svc, err := w.open(ds)
			if err != nil {
				sys.close()
				return nil, err
			}
			sys.nodeSvcs = append(sys.nodeSvcs, svc)
			node, err := cluster.StartNode(ctx, svc.Nodes()[i], svc, "127.0.0.1:0")
			if err != nil {
				sys.close()
				return nil, err
			}
			node.Logf = func(string, ...any) {}
			sys.nodes = append(sys.nodes, node)
			addrs[node.Name()] = node.Addr()
		}
		d, err := metadata.ParseFile(ds.desc)
		if err != nil {
			sys.close()
			return nil, err
		}
		if sys.coord, err = cluster.NewCoordinator(d, addrs); err != nil {
			sys.close()
			return nil, err
		}
	} else {
		var err error
		if sys.svc, err = w.open(ds); err != nil {
			return nil, err
		}
	}
	for _, o := range warm {
		if _, err := drain(ctx, sys, o.sql); err != nil {
			sys.close()
			return nil, fmt.Errorf("warm-up %q: %w", o.sql, err)
		}
	}
	return sys, nil
}

// warmOps is the warm-up pass of set-up: the hot set where the workload
// has one, else the distinct ops among its first few.
func warmOps(w *workload, d draw) []op {
	if w.hot != nil {
		return w.hot(w, d)
	}
	return distinct(firstOps(w, d, 32), 32)
}

// firstOps lists the first n ops of the run's sequence.
func firstOps(w *workload, d draw, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = w.opAt(w, d, int64(i))
	}
	return ops
}

// distinct returns the first max ops of ops with distinct SQL.
func distinct(ops []op, max int) []op {
	var out []op
	seen := map[string]bool{}
	for _, o := range ops {
		if !seen[o.sql] && len(out) < max {
			seen[o.sql] = true
			out = append(out, o)
		}
	}
	return out
}
