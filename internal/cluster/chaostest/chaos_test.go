package chaostest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datavirt/internal/cache"
	"datavirt/internal/cache/cachetest"
	"datavirt/internal/cluster"
	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/metadata"
	"datavirt/internal/sparse"
)

const fullScan = "SELECT * FROM IparsData"

// TestKillEachNodeMidQuery is the acceptance gate: for every node in
// the replica chain, crash that node (proxy links dropped, node
// closed) after its leg has streamed at least one row batch, and
// demand the query still return rows byte-identical to a healthy
// local run — the staged-delivery contract means the partial stream
// is discarded and replayed on the standby, never double-delivered.
func TestKillEachNodeMidQuery(t *testing.T) {
	spec := DefaultSpec()
	for i := 0; i < spec.Partitions; i++ {
		victim := "node" + string(rune('0'+i))
		t.Run(victim, func(t *testing.T) {
			c := Start(t, Config{Spec: spec})
			want := c.LocalSorted(t, fullScan)
			base := runtime.NumGoroutine()

			c.Proxies[victim].KillAfter(1, func() { c.Nodes[victim].Close() }) //nolint:errcheck — crash by design
			got, res := c.CollectSorted(t, fullScan)

			AssertSameRows(t, got, want)
			if res.QueryStats.ReplicaFailovers < 1 {
				t.Errorf("ReplicaFailovers = %d, want >= 1", res.QueryStats.ReplicaFailovers)
			}
			if res.QueryStats.LegRedispatches < 1 {
				t.Errorf("LegRedispatches = %d, want >= 1", res.QueryStats.LegRedispatches)
			}
			c.Coord.Close() //nolint:errcheck — always nil
			WaitGoroutines(t, base)
		})
	}
}

// TestQueriesAfterNodeDeath keeps using one coordinator after a node
// crash: the node dies mid-way through a full scan, and every later
// query — window scans and pushed aggregates, over session pools that
// held connections to the dead node — must still return rows
// byte-identical to a healthy local run, with the failover recorded.
func TestQueriesAfterNodeDeath(t *testing.T) {
	const victim = "node1"
	c := Start(t, Config{})
	queries := []string{fullScan}
	for tm := 1; tm <= 8; tm++ {
		queries = append(queries, fmt.Sprintf("SELECT * FROM IparsData WHERE TIME = %d", tm))
	}
	queries = append(queries,
		"SELECT REL, COUNT(*), SUM(TIME), AVG(SOIL) FROM IparsData GROUP BY REL",
		"SELECT TIME, MIN(SOIL), MAX(SGAS) FROM IparsData WHERE SGAS > 0.3 GROUP BY TIME")
	want := make([][]string, len(queries))
	for i, sql := range queries {
		want[i] = c.LocalSorted(t, sql)
	}
	// Warm the coordinator's pools to every node, then crash victim
	// after its leg of the next query has streamed one row batch.
	c.CollectSorted(t, fullScan)
	c.Proxies[victim].KillAfter(c.Proxies[victim].DataFrames()+1, func() { c.Nodes[victim].Close() }) //nolint:errcheck — crash by design

	var failovers int64
	for i, sql := range queries {
		got, res := c.CollectSorted(t, sql)
		AssertSameRows(t, got, want[i])
		failovers += res.QueryStats.ReplicaFailovers
	}
	if failovers < 1 {
		t.Errorf("ReplicaFailovers over %d queries = %d, want >= 1", len(queries), failovers)
	}
}

// TestBlackholeStallFailover exercises the failure mode a connection
// error never signals: the node stays up, the TCP link stays open,
// but frames stop arriving. Only the per-leg stall watchdog can see
// this; it must abandon the leg and fail over within bounded time.
func TestBlackholeStallFailover(t *testing.T) {
	c := Start(t, Config{})
	c.Coord.LegStallAfter = 200 * time.Millisecond
	want := c.LocalSorted(t, fullScan)
	base := runtime.NumGoroutine()

	c.Proxies["node1"].BlackholeAfter(1)
	start := time.Now()
	got, res := c.CollectSorted(t, fullScan)
	elapsed := time.Since(start)

	AssertSameRows(t, got, want)
	if res.QueryStats.ReplicaFailovers < 1 {
		t.Errorf("ReplicaFailovers = %d, want >= 1", res.QueryStats.ReplicaFailovers)
	}
	// Bounded latency: one stall detection plus a replay, not a hang.
	if elapsed > 15*time.Second {
		t.Errorf("blackholed query took %v, want bounded", elapsed)
	}
	if elapsed < c.Coord.LegStallAfter {
		t.Errorf("query finished in %v, before the %v stall watchdog could have fired",
			elapsed, c.Coord.LegStallAfter)
	}
	c.Coord.Close() //nolint:errcheck — always nil
	WaitGoroutines(t, base)
}

// TestAggregateKillFailover kills a node before its partial-aggregate
// frame is delivered. A double merge would corrupt SUM/AVG/COUNT
// silently, so equality against the local run proves exactly-once.
func TestAggregateKillFailover(t *testing.T) {
	const sql = "SELECT REL, COUNT(*), SUM(TIME), AVG(SOIL) FROM IparsData GROUP BY REL"
	c := Start(t, Config{})
	want := c.LocalSorted(t, sql)

	c.Proxies["node2"].KillAfter(0, func() { c.Nodes["node2"].Close() }) //nolint:errcheck — crash by design
	got, res := c.CollectSorted(t, sql)

	AssertSameRows(t, got, want)
	if res.QueryStats.ReplicaFailovers < 1 {
		t.Errorf("ReplicaFailovers = %d, want >= 1", res.QueryStats.ReplicaFailovers)
	}
}

// TestShedStormFailover drives one replica into admission shedding
// (single execution slot, no queue) under a burst of concurrent
// queries: shed legs must fail over to the standby instead of
// erroring, and every query must still return the full result.
//
// The coordinator's own load-aware placement would dodge the storm —
// it routes legs away from a pool it has dispatched to — so the slot
// is pinned by a deliberately slow holder query from an independent
// coordinator (a second client process), invisible to the storm
// coordinator's in-flight accounting. The storm's legs then land on
// node0, shed at admission, and must fail over.
func TestShedStormFailover(t *testing.T) {
	disk := &cachetest.Disk{}
	// Small blocks × a per-read delay stretch node0's extraction to
	// hundreds of milliseconds — the slot stays held through the storm.
	disk.SetReadDelay(10 * time.Millisecond)
	c := Start(t, Config{
		Node: func(name string, n *cluster.Node) {
			if name == "node0" {
				n.MaxConcurrent = 1
				n.MaxQueue = -1
			}
		},
		Service: func(name string, svc *core.Service) {
			if name == "node0" {
				svc.SetCacheConfig(cache.Config{BlockBytes: 512, OpenFile: disk.Open})
			}
		},
	})
	want := c.LocalSorted(t, fullScan)

	// Holder: occupy node0's only execution slot from a separate
	// coordinator. Admission precedes planning and extraction, so the
	// first read on node0's fault disk proves the slot is held.
	holder := c.ExtraCoordinator(t)
	holderDone := make(chan error, 1)
	go func() {
		_, _, err := holder.CollectQueryContext(context.Background(), fullScan)
		holderDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for disk.Reads.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if disk.Reads.Load() == 0 {
		t.Fatal("holder query never reached node0 extraction")
	}

	const queries = 16
	var shed, failovers, retries atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rows, res, err := c.Coord.CollectQueryContext(context.Background(), fullScan)
			if err != nil {
				errs <- err
				return
			}
			got := SortedRows(rows)
			if len(got) != len(want) {
				t.Errorf("got %d rows, want %d", len(got), len(want))
				return
			}
			for j := range got {
				if got[j] != want[j] {
					t.Errorf("row %d differs under shed storm", j)
					break
				}
			}
			shed.Add(res.QueryStats.ShedQueries)
			failovers.Add(res.QueryStats.ReplicaFailovers)
			retries.Add(res.QueryStats.ReplicaRetries)
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("query failed under shed storm: %v", err)
	}
	if err := <-holderDone; err != nil {
		t.Errorf("holder query failed: %v", err)
	}
	if shed.Load() < 1 {
		t.Errorf("ShedQueries total = %d, want >= 1 (storm never overloaded node0)", shed.Load())
	}
	if failovers.Load()+retries.Load() < 1 {
		t.Errorf("no failovers (%d) or retries (%d) despite %d sheds",
			failovers.Load(), retries.Load(), shed.Load())
	}
	t.Logf("storm: %d shed, %d failed over, %d retried", shed.Load(), failovers.Load(), retries.Load())
}

// TestReadFaultFailover injects physical-I/O chaos on one node via
// cachetest: every read is delayed, and one read fails outright. The
// extraction error must surface as a leg failure and fail over, not
// as a query error.
func TestReadFaultFailover(t *testing.T) {
	disk := &cachetest.Disk{}
	disk.SetReadDelay(time.Millisecond)
	disk.FailReadNumber(3)
	c := Start(t, Config{
		Service: func(name string, svc *core.Service) {
			if name == "node2" {
				svc.SetCacheConfig(cache.Config{BlockBytes: 4096, OpenFile: disk.Open})
			}
		},
	})
	want := c.LocalSorted(t, fullScan)

	got, res := c.CollectSorted(t, fullScan)

	AssertSameRows(t, got, want)
	if res.QueryStats.ReplicaFailovers < 1 {
		t.Errorf("ReplicaFailovers = %d, want >= 1", res.QueryStats.ReplicaFailovers)
	}
	if disk.Reads.Load() < 1 {
		t.Fatalf("fault disk saw no reads — chaos never engaged")
	}
}

// TestCorruptSidecarFailover covers the sparse-index interaction: the
// failover replica finds a corrupt .dvsx sidecar for the partition it
// inherits. The sidecar must degrade to a full scan (identical rows,
// SparseIndexMisses counted), never to wrong pruning.
func TestCorruptSidecarFailover(t *testing.T) {
	const sql = "SELECT SOIL, TIME FROM IparsData WHERE SGAS > 0.3"
	spec := DefaultSpec()
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, spec, "CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sparse.BuildDataset(d, sparse.NodeResolver(root), sparse.BuildOptions{BlockBytes: 512}, nil); err != nil {
		t.Fatal(err)
	}
	// Baseline with healthy sidecars, then corrupt every sidecar under
	// partition node0 — the files the standby inherits on failover.
	healthy, err := core.Open(descPath, root)
	if err != nil {
		t.Fatal(err)
	}
	want := localSorted(t, healthy, sql)
	healthy.Close()
	corrupted := 0
	err = filepath.WalkDir(filepath.Join(root, "node0"), func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasSuffix(path, sparse.Suffix) {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		b[1] ^= 0xFF // break the header magic
		corrupted++
		return os.WriteFile(path, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("no sidecars found under node0 — corruption never staged")
	}

	c := StartAt(t, Config{}, spec, root, descPath)
	c.Proxies["node0"].KillAfter(0, func() { c.Nodes["node0"].Close() }) //nolint:errcheck — crash by design
	got, res := c.CollectSorted(t, sql)

	AssertSameRows(t, got, want)
	if res.QueryStats.ReplicaFailovers < 1 {
		t.Errorf("ReplicaFailovers = %d, want >= 1", res.QueryStats.ReplicaFailovers)
	}
	if res.Stats.SparseIndexMisses < 1 {
		t.Errorf("SparseIndexMisses = %d, want >= 1 (corrupt sidecar should fall back, not vanish)",
			res.Stats.SparseIndexMisses)
	}
}

// TestHedgeFailoverNoDoubleDelivery races the hedging path against
// failover: the first stream to node0 stalls before its first frame
// (forcing a hedge), the hedge stream claims the leg, delivers one
// row batch, and then the whole node drops. The staged batch must be
// discarded and the standby's replay delivered exactly once — row
// counts prove no duplication, equality proves no loss.
func TestHedgeFailoverNoDoubleDelivery(t *testing.T) {
	c := Start(t, Config{})
	c.Coord.HedgeAfter = 50 * time.Millisecond
	want := c.LocalSorted(t, fullScan)
	base := runtime.NumGoroutine()

	p := c.Proxies["node0"]
	p.StallFirstConn()
	p.KillAfter(1, func() { c.Nodes["node0"].Close() }) //nolint:errcheck — crash by design
	got, res := c.CollectSorted(t, fullScan)

	AssertSameRows(t, got, want)
	if res.QueryStats.HedgedLegs < 1 {
		t.Errorf("HedgedLegs = %d, want >= 1 (stalled first conn should have hedged)", res.QueryStats.HedgedLegs)
	}
	if res.QueryStats.ReplicaFailovers < 1 {
		t.Errorf("ReplicaFailovers = %d, want >= 1", res.QueryStats.ReplicaFailovers)
	}
	c.Coord.Close() //nolint:errcheck — always nil
	WaitGoroutines(t, base)
}

// TestHealthyReplicatedCluster pins the degenerate case: with no
// fault plan armed, a replicated cluster behaves exactly like the
// unreplicated one — primaries serve their own partitions and no
// failover machinery engages.
func TestHealthyReplicatedCluster(t *testing.T) {
	c := Start(t, Config{})
	want := c.LocalSorted(t, fullScan)
	got, res := c.CollectSorted(t, fullScan)
	AssertSameRows(t, got, want)
	if res.QueryStats.LegRedispatches != 0 || res.QueryStats.ReplicaFailovers != 0 {
		t.Errorf("healthy run redispatched %d / failed over %d legs, want 0/0",
			res.QueryStats.LegRedispatches, res.QueryStats.ReplicaFailovers)
	}
	for _, name := range []string{"node0", "node1", "node2"} {
		if n := c.Proxies[name].DataFrames(); n < 1 {
			t.Errorf("proxy %s forwarded %d data frames, want >= 1", name, n)
		}
	}
}
