package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"datavirt/internal/core"
	"datavirt/internal/extractor"
	"datavirt/internal/metadata"
	"datavirt/internal/obs"
	"datavirt/internal/query"
	"datavirt/internal/schema"
	"datavirt/internal/sqlparser"
	"datavirt/internal/storm"
	"datavirt/internal/table"
)

// Coordinator is the client-side entry point of the distributed system:
// it holds the descriptor (for planning and row decoding), keeps a pool
// of persistent multiplexed sessions to every node server, fans each
// query out, and merges or routes the returned tuple streams. It
// performs no file I/O.
//
// The knob fields may be adjusted after NewCoordinator and before the
// first query; they tolerate slow, overloaded or dead nodes in the
// spirit of the paper's loosely coupled STORM services. Call Close when
// done to release the pooled connections.
type Coordinator struct {
	svc   *core.Service
	addrs map[string]string // node name → host:port
	// replicas maps each partition (primary node name) to the ordered
	// set of nodes able to serve it, primary first (core.Replicas).
	// Immutable after NewCoordinator.
	replicas map[string][]string

	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// DialRetries is how many times a failed dial is retried with
	// exponential backoff before the node is reported dead (default 2).
	DialRetries int
	// RetryBackoff is the first retry's delay, doubled per attempt
	// (default 50ms).
	RetryBackoff time.Duration
	// IOTimeout, when positive, bounds every frame write and the gap
	// between frames received while queries are in flight; a node that
	// stalls longer mid-stream fails its session. Zero relies on
	// context deadlines alone.
	IOTimeout time.Duration

	// PoolSize is how many persistent multiplexed sessions to keep per
	// node; concurrent queries share them round-robin. Zero means 2; a
	// negative value disables pooling entirely — every query leg dials
	// its own connection and closes it afterwards (the one-query-per-
	// connection shape of protocol v1, kept as a benchmark baseline).
	PoolSize int
	// HedgeAfter, when positive, hedges straggler legs: if a node has
	// not produced a first frame within this duration, a duplicate leg
	// is launched and the first stream to deliver wins while the loser
	// is cancelled. Zero disables hedging.
	HedgeAfter time.Duration
	// OverloadRetries is how many times a leg shed by a node's
	// admission control (ErrOverloaded) is retried with backoff before
	// the error is surfaced (default 2; negative means none).
	OverloadRetries int
	// OverloadBackoff is the first overload retry's delay, doubled per
	// attempt (default 25ms).
	OverloadBackoff time.Duration
	// WindowBytes is the per-query flow-control window granted to each
	// node (how far a node may run ahead of the merging consumer).
	// Zero means the protocol default (1 MiB).
	WindowBytes int64
	// LegStallAfter, when positive, bounds the gap between frames
	// received by one leg's stream: a leg with no frame progress for
	// this long fails with errLegStalled and, when its partition has
	// standby replicas, is re-dispatched to one. Unlike IOTimeout it is
	// per-leg, so a blackholed query does not tear down the session it
	// shares with healthy ones. Zero disables the watchdog.
	LegStallAfter time.Duration
	// FailoverStageBytes bounds how many result-payload bytes a
	// replicated leg stages before the coordinator commits them to the
	// merge. Staged legs can be re-dispatched to a standby replica
	// after a mid-stream failure without delivering any row twice;
	// once committed a leg's failure is final. Zero means 8 MiB;
	// partitions with a single replica never stage. See legStage.
	FailoverStageBytes int64

	poolMu sync.Mutex
	pools  map[string]*nodePool //dvlint:guardedby poolMu

	// dialContext is the dial function; tests substitute it to inject
	// misbehaving nodes and to observe connection lifecycles.
	dialContext func(ctx context.Context, network, addr string) (net.Conn, error)
}

// NewCoordinator plans against the descriptor and dispatches to the
// given node address table. Every node named by the descriptor's
// storage section — primaries and standby replicas alike — must
// appear in addrs.
func NewCoordinator(d *metadata.Descriptor, addrs map[string]string) (*Coordinator, error) {
	svc, err := core.Compile(d, func(node, file string) (string, error) {
		return "", fmt.Errorf("cluster: coordinator does not read data files")
	})
	if err != nil {
		return nil, err
	}
	for _, node := range svc.AllNodes() {
		if _, ok := addrs[node]; !ok {
			return nil, fmt.Errorf("cluster: no address for node %q", node)
		}
	}
	return &Coordinator{
		svc:          svc,
		addrs:        addrs,
		replicas:     svc.Replicas(),
		DialTimeout:  5 * time.Second,
		DialRetries:  2,
		RetryBackoff: 50 * time.Millisecond,
	}, nil
}

// Schema returns the virtual table schema.
func (c *Coordinator) Schema() *schema.Schema { return c.svc.Schema() }

// SetPlanCacheConfig replaces the coordinator's own semantic plan
// cache (each node server's cache is configured on its service).
func (c *Coordinator) SetPlanCacheConfig(cfg core.PlanCacheConfig) {
	c.svc.SetPlanCacheConfig(cfg)
}

// PlanCacheStats snapshots the coordinator-side plan cache counters.
func (c *Coordinator) PlanCacheStats() core.PlanCacheStats {
	return c.svc.PlanCacheStats()
}

// Close releases every pooled node session. In-flight queries fail;
// the coordinator may be used again afterwards (pools re-form).
func (c *Coordinator) Close() error {
	c.poolMu.Lock()
	pools := c.pools
	c.pools = nil
	c.poolMu.Unlock()
	for _, p := range pools {
		p.close()
	}
	return nil
}

// pool returns the session pool for node, creating it on first use
// (freezing PoolSize and IOTimeout for that node at that point).
func (c *Coordinator) pool(node string) *nodePool {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	if c.pools == nil {
		c.pools = map[string]*nodePool{}
	}
	if p, ok := c.pools[node]; ok {
		return p
	}
	size := c.PoolSize
	if size == 0 {
		size = 2
	}
	if size < 0 {
		size = 0 // ephemeral: one conn per leg
	}
	p := &nodePool{
		dial: func(ctx context.Context) (net.Conn, error) { return c.dialNode(ctx, node) },
		size: size,
		io:   c.IOTimeout,
	}
	c.pools[node] = p
	return p
}

// Result carries the merged outcome of a distributed query.
type Result struct {
	// Stats aggregates extraction statistics over all nodes.
	Stats extractor.Stats
	// Rows is the total tuple count transferred. Aggregate queries
	// transfer partial aggregates instead of tuples, so it stays zero
	// for them.
	Rows int64
	// SentBytes is the result payload streamed by all legs ('R' row
	// batches or 'A' partial-aggregate frames) — the coordinator-side
	// transfer cost push-down aggregation minimizes.
	SentBytes int64
	// PerNode maps node name → tuples produced there.
	PerNode map[string]int64
	// QueryStats is the per-query observability record: plan and index
	// times are the coordinator's, extract time is the slowest node's
	// (the straggler), filter time sums over nodes, net time is the
	// fan-out wall time, and the serving counters report admission
	// queueing, load shedding and hedging across the legs.
	QueryStats obs.QueryStats
}

// QueryContext runs sql on every node and returns a streaming cursor
// over the merged rows — the same API shape as core.Service, so local
// and distributed execution are interchangeable to clients. Columns
// follow the SELECT list; rows arrive in a deterministic order only
// within each node's stream. Cancelling ctx (or Close on the cursor)
// abandons every node leg promptly, and a context deadline is
// forwarded to the nodes so they stop extracting server-side. The
// cursor's Stats include the serving counters (queued/shed/hedged).
func (c *Coordinator) QueryContext(ctx context.Context, sql string) (*core.Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Parse and plan locally before contacting any node; errors
	// surface synchronously and cheaply.
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	prep, err := c.svc.PrepareParsedContext(ctx, q)
	if err != nil {
		return nil, err
	}
	return core.NewRows(ctx, prep.Cols, func(runCtx context.Context, deliver extractor.BatchFunc) (obs.QueryStats, error) {
		// Each decoded 'R' frame goes to the cursor whole, with ownership.
		res, err := c.runPrepared(runCtx, sql, prep, storm.PartitionSpec{}, func(dest int, rows []table.Row) error {
			return deliver(rows, true)
		})
		if err != nil {
			return obs.QueryStats{}, err
		}
		return res.QueryStats, nil
	}), nil
}

// QueryFuncContext runs sql on every node and calls emit for each
// returned row (from a single goroutine; the row is only valid during
// the call, per the extractor.EmitFunc reuse contract).
//
// Deprecated: use QueryContext, which returns a streaming cursor; this
// callback shim remains for push-style clients and returns the full
// per-node Result.
func (c *Coordinator) QueryFuncContext(ctx context.Context, sql string, emit func(row table.Row) error) (*Result, error) {
	perRow := extractor.PerRow(emit)
	return c.run(ctx, sql, storm.PartitionSpec{}, func(dest int, rows []table.Row) error {
		return perRow(rows, true)
	})
}

// QueryPartitionedContext runs sql with server-side partition
// generation: each node tags every tuple with its destination among
// spec.NumDests client processors, and the coordinator routes tuples
// to the matching sink — the data mover service. Every sink is closed
// once the query ends, whether it succeeded or failed; the query's
// error takes precedence over the first close error.
func (c *Coordinator) QueryPartitionedContext(ctx context.Context, sql string, spec storm.PartitionSpec, sinks []storm.Sink) (*Result, error) {
	if spec.NumDests != len(sinks) {
		return nil, fmt.Errorf("cluster: partition spec has %d destinations, got %d sinks",
			spec.NumDests, len(sinks))
	}
	res, err := c.run(ctx, sql, spec, func(dest int, rows []table.Row) error {
		if dest < 0 || dest >= len(sinks) {
			return fmt.Errorf("cluster: destination %d out of range", dest)
		}
		for _, row := range rows {
			if err := sinks[dest].Send(row); err != nil {
				return err
			}
		}
		return nil
	})
	for _, s := range sinks {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return res, err
}

// CollectQueryContext runs sql and returns all rows, in a deterministic
// order only within each node's stream. The rows are owned by the
// caller (each decoded frame is fresh memory), so nothing is copied.
func (c *Coordinator) CollectQueryContext(ctx context.Context, sql string) ([]table.Row, *Result, error) {
	var rows []table.Row
	res, err := c.run(ctx, sql, storm.PartitionSpec{}, func(dest int, batch []table.Row) error {
		rows = append(rows, batch...) // owned: retaining needs no copy
		return nil
	})
	return rows, res, err
}

// run parses, plans and executes sql across the cluster, delivering
// rows as runPrepared does.
func (c *Coordinator) run(ctx context.Context, sql string, spec storm.PartitionSpec, deliver func(dest int, rows []table.Row) error) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	prep, err := c.svc.PrepareParsedContext(ctx, q)
	if err != nil {
		return nil, err
	}
	if prep.Agg != nil && spec.NumDests > 0 {
		// Partition generation routes individual tuples to client
		// processors; an aggregate's groups only exist after the
		// coordinator merge, so the two cannot compose.
		return nil, fmt.Errorf("cluster: aggregate queries cannot be partitioned")
	}
	return c.runPrepared(ctx, sql, prep, spec, deliver)
}

// legCounters aggregates serving events across a query's legs.
type legCounters struct {
	shed   atomic.Int64
	hedged atomic.Int64
	// redispatched counts legs dispatched more than once (any reason);
	// failovers counts re-dispatches to a different replica after the
	// serving node failed or stalled; retries counts same-node overload
	// retries of a replicated leg.
	redispatched atomic.Int64
	failovers    atomic.Int64
	retries      atomic.Int64
}

// runPrepared fans the prepared query out to every node over the
// session pools, merges the streams and assembles the Result. Rows
// reach deliver a batch at a time — one decoded 'R' frame (or the
// finalized groups of an aggregate) with its partition destination —
// from this goroutine only. Every batch is owned in the sense of
// extractor.EmitFunc: DecodeAll and Finalize build fresh memory nothing
// here touches again.
func (c *Coordinator) runPrepared(ctx context.Context, sql string, prep *core.Prepared, spec storm.PartitionSpec, deliver func(dest int, rows []table.Row) error) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A chunk spanning nodes belongs to no single node server, so every
	// leg would drop it; refuse the query before dispatching any leg.
	if err := core.CheckColocated(prep.AFCs); err != nil {
		return nil, err
	}
	codec := table.NewCodec(prep.OutSchema)
	tracer := obs.TracerFrom(ctx)

	req := Request{
		Version:     protocolVersion,
		SQL:         sql,
		Partition:   spec,
		Parallel:    true,
		WindowBytes: c.WindowBytes,
	}
	// Forward the deadline so the node stops extracting server-side
	// when the client's budget runs out.
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.TimeoutMS = ms
	}

	// Aggregate queries: every leg ships partial aggregates in 'A'
	// frames; legs merge them into one coordinator-side state (the
	// mutex serializes merges across leg goroutines) and the final
	// groups are delivered after the fan-in.
	var aggMu sync.Mutex
	var aggState *query.AggState
	var onAgg func(payload []byte) error
	if prep.Agg != nil {
		aggState = query.NewAggState(prep.Agg)
		onAgg = func(payload []byte) error {
			aggMu.Lock()
			defer aggMu.Unlock()
			return aggState.MergeEncoded(payload)
		}
	}

	nodes := c.svc.Nodes()
	type nodeBatch struct {
		node string
		dest int
		rows []table.Row
	}
	type nodeDone struct {
		node    string
		trailer Trailer
		err     error
	}
	batchc := make(chan nodeBatch, len(nodes)*2)
	donec := make(chan nodeDone, len(nodes))
	var counters legCounters
	var wg sync.WaitGroup

	netStart := time.Now()
	for _, node := range nodes {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			endNet := obs.Begin(tracer, sql, obs.StageNet)
			tr, err := c.runLeg(ctx, node, req, codec, &counters, func(dest int, rows []table.Row) {
				batchc <- nodeBatch{node: node, dest: dest, rows: rows}
			}, onAgg)
			endNet(err)
			donec <- nodeDone{node: node, trailer: tr, err: err}
		}(node)
	}
	go func() {
		wg.Wait()
		close(batchc)
	}()

	res := &Result{PerNode: map[string]int64{}}
	var firstErr error
	for b := range batchc {
		if firstErr != nil {
			continue // drain
		}
		firstErr = deliver(b.dest, b.rows)
	}
	var slowestExtract int64
	var pcHits, pcMisses int64
	var queuedLegs, queueNS int64
	for range nodes {
		d := <-donec
		if d.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: node %s: %w", d.node, d.err)
		}
		res.Stats.Add(d.trailer.Stats)
		res.Rows += d.trailer.Rows
		res.SentBytes += d.trailer.SentBytes
		res.PerNode[d.node] = d.trailer.Rows
		if d.trailer.ExtractNS > slowestExtract {
			slowestExtract = d.trailer.ExtractNS
		}
		pcHits += d.trailer.PlanCacheHits
		pcMisses += d.trailer.PlanCacheMisses
		queuedLegs += d.trailer.Queued
		queueNS += d.trailer.QueueNS
	}
	if firstErr != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, firstErr
	}
	// A cancellation that loses the race to stream completion still
	// cancels the query: the caller asked for abandonment, not a result.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Aggregate queries finalize here: every leg's partials are merged,
	// so this is the first (and only) place the complete groups exist.
	if aggState != nil {
		if rows := aggState.Finalize(); len(rows) > 0 {
			if err := deliver(0, rows); err != nil {
				return nil, err
			}
		}
	}
	plan, index := prep.PrepareStats()
	ownHits, ownMisses := prep.PlanCacheCounters()
	// The trailer merge summed every leg's extractor counters into
	// res.Stats; everything QueryStats cannot derive from them travels
	// in the extras (see statsmerge_gen.go, kept in sync with the
	// QueryStats struct by dvlint -generate).
	res.QueryStats = mergeQueryStats(res.Stats, mergedStatsExtras{
		ChunksPlanned: len(prep.AFCs),
		RowsFiltered:  res.Stats.RowsScanned - res.Stats.RowsEmitted,

		// The coordinator's own prepare plus every node leg's.
		PlanCacheHits:   ownHits + pcHits,
		PlanCacheMisses: ownMisses + pcMisses,

		// Serving counters: admission queueing reported by the nodes,
		// shedding and hedging observed by the legs.
		QueuedQueries: queuedLegs,
		ShedQueries:   counters.shed.Load(),
		HedgedLegs:    counters.hedged.Load(),

		// Failover counters: dispatches beyond a leg's first, and why.
		LegRedispatches:  counters.redispatched.Load(),
		ReplicaFailovers: counters.failovers.Load(),
		ReplicaRetries:   counters.retries.Load(),

		PlanTime:    plan,
		IndexTime:   index,
		QueueTime:   time.Duration(queueNS),
		ExtractTime: time.Duration(slowestExtract),
		NetTime:     time.Since(netStart),
	})
	return res, nil
}

// runLeg drives one partition's leg: replica placement, session
// checkout, hedging, bounded retry of legs shed by admission control,
// and — when the partition has standby replicas — staged failover of
// a leg whose serving node dies or stalls mid-stream.
//
// The loop terminates: every iteration either returns, permanently
// adds a node to failed (candidates only shrink), or consumes one
// unit of the overload-retry budget.
func (c *Coordinator) runLeg(ctx context.Context, partition string, req Request, codec *table.Codec,
	counters *legCounters, onBatch func(dest int, rows []table.Row), onAgg func(payload []byte) error) (Trailer, error) {

	replicas := c.replicas[partition]
	if len(replicas) == 0 {
		replicas = []string{partition}
	}
	// Staged failover is only armed when a standby exists; a single-
	// replica partition streams straight into the merge, exactly the
	// pre-replica behavior.
	var stage *legStage
	if len(replicas) > 1 {
		req.NodeFilter = partition
		budget := c.FailoverStageBytes
		if budget <= 0 {
			budget = defaultStageBytes
		}
		stage = newLegStage(budget, int64(codec.RowBytes()), onBatch, onAgg)
		onBatch = stage.batch
		if onAgg != nil {
			onAgg = stage.agg
		}
	}

	overloadLeft := c.OverloadRetries
	if overloadLeft == 0 {
		overloadLeft = 2
	}
	if overloadLeft < 0 {
		overloadLeft = 0
	}
	backoff := c.OverloadBackoff
	if backoff <= 0 {
		backoff = 25 * time.Millisecond
	}

	failed := map[string]bool{}
	dispatched := false
	avoid := ""
	for {
		node, ok := c.pickReplica(replicas, failed, avoid)
		if !ok {
			return Trailer{}, fmt.Errorf("cluster: no live replica left for partition %s", partition)
		}
		avoid = ""
		if dispatched {
			counters.redispatched.Add(1)
		}
		dispatched = true

		pool := c.pool(node)
		pool.legStarted()
		tr, err := c.legHedged(ctx, pool, req, codec, counters, onBatch, onAgg)
		pool.legDone()
		pool.reportResult(healthErr(err), c.RetryBackoff)
		if err == nil {
			if stage != nil {
				if cerr := stage.commit(); cerr != nil {
					return Trailer{}, cerr
				}
			}
			return tr, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return Trailer{}, cerr
		}
		if errors.Is(err, ErrOverloaded) {
			// Shedding is a healthy node protecting itself: the node is
			// not marked failed, but each shed consumes retry budget so a
			// cluster-wide overload storm still surfaces promptly.
			counters.shed.Add(1)
			if overloadLeft <= 0 {
				return Trailer{}, err
			}
			overloadLeft--
			if other, ok := c.pickReplica(replicas, failed, node); ok && other != node {
				// Another live replica can take the leg right now; no
				// point backing off against the loaded one.
				counters.failovers.Add(1)
				avoid = node
				continue
			}
			counters.retries.Add(1)
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return Trailer{}, ctx.Err()
			}
			backoff *= 2
			continue
		}
		// Hard failure: connection loss, stall, or a server error.
		if stage == nil || stage.committed {
			// Unreplicated, or rows already released to the merge — the
			// leg cannot be replayed without duplicating them.
			return Trailer{}, err
		}
		failed[node] = true
		if _, ok := c.pickReplica(replicas, failed, ""); !ok {
			return Trailer{}, err
		}
		// Nothing reached the merge: discard the staged partial stream
		// and replay the whole leg on a standby.
		stage.reset()
		counters.failovers.Add(1)
	}
}

// pickReplica chooses the replica to dispatch a leg to: health-gated
// nodes are considered only when no open one remains, the least
// loaded (fewest in-flight legs) wins, and ties keep replica-set
// order (primary first). avoid, when set, excludes that node unless
// it is the only candidate; ok is false when every replica has
// permanently failed.
func (c *Coordinator) pickReplica(replicas []string, failed map[string]bool, avoid string) (node string, ok bool) {
	var bestGated bool
	var bestLoad int64
	for _, n := range replicas {
		if failed[n] || n == avoid {
			continue
		}
		gated, inflight := c.pool(n).load()
		if !ok || (bestGated && !gated) || (gated == bestGated && inflight < bestLoad) {
			node, ok = n, true
			bestGated, bestLoad = gated, inflight
		}
	}
	if !ok && avoid != "" && !failed[avoid] {
		return avoid, true
	}
	return node, ok
}

// healthErr filters errors that should not count against a node's
// health: cancellation is the client's doing, and shedding is a
// healthy node protecting itself.
func healthErr(err error) error {
	if err == nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrOverloaded) {
		return nil
	}
	return err
}

// errHedgeLost is returned by the stream that lost the hedge race;
// it never surfaces to callers.
var errHedgeLost = errors.New("cluster: hedged leg lost the race")

// legHedged runs the leg, optionally duplicating it onto a second
// stream when the first has not produced a frame within HedgeAfter.
// Exactly one stream claims the right to deliver rows (an atomic CAS
// at its first delivered frame), so the merged result never sees
// duplicates; the loser is cancelled.
func (c *Coordinator) legHedged(ctx context.Context, pool *nodePool, req Request, codec *table.Codec,
	counters *legCounters, onBatch func(dest int, rows []table.Row), onAgg func(payload []byte) error) (Trailer, error) {

	var claim atomic.Int32
	if c.HedgeAfter <= 0 {
		tr, _, err := c.legStream(ctx, pool, req, codec, &claim, 1, onBatch, onAgg)
		return tr, err
	}

	type streamRes struct {
		tr      Trailer
		claimed bool
		err     error
	}
	// Loser-abandonment contract (checked by the golife analyzer's
	// bounded-body rule — the spawned closure below has no loop): at
	// most two streams ever launch, resc is buffered to hold both
	// results, so a loser's send never blocks even after legHedged has
	// returned; the deferred scancel cancels the losing stream's
	// context, and legStream's context.AfterFunc abandons its leg,
	// unblocking any wait inside it. A hedge loser therefore always
	// runs to its send and exits — it cannot leak.
	resc := make(chan streamRes, 2)
	sctx, scancel := context.WithCancel(ctx)
	defer scancel()
	launch := func(id int32) {
		go func() {
			tr, claimed, err := c.legStream(sctx, pool, req, codec, &claim, id, onBatch, onAgg)
			resc <- streamRes{tr: tr, claimed: claimed, err: err}
		}()
	}
	launch(1)

	// The hedge timer and the result loop race; hmu linearizes the
	// "launch a hedge" vs "give up on this leg" decision so a hedge is
	// never launched after the leg has returned (a stray stream could
	// otherwise deliver rows into a closed merge).
	var hmu sync.Mutex
	hedged := false
	abandoned := false
	timer := time.AfterFunc(c.HedgeAfter, func() {
		hmu.Lock()
		defer hmu.Unlock()
		if abandoned || claim.Load() != 0 || sctx.Err() != nil {
			return
		}
		hedged = true
		counters.hedged.Add(1)
		launch(2)
	})
	defer timer.Stop()

	var lastErr error
	finished := 0
	for {
		r := <-resc
		finished++
		if r.err == nil {
			return r.tr, nil
		}
		if r.claimed {
			// The delivering stream failed mid-way; rows may already be
			// merged, so the leg cannot be retried or re-hedged.
			return Trailer{}, r.err
		}
		if !errors.Is(r.err, errHedgeLost) {
			lastErr = r.err
		}
		hmu.Lock()
		if !hedged {
			abandoned = true
			hmu.Unlock()
			return Trailer{}, lastErr
		}
		launched := 2
		hmu.Unlock()
		if finished >= launched {
			return Trailer{}, lastErr
		}
	}
}

// legStream runs one wire stream of a leg over a (possibly shared)
// session: sends the query, consumes its frames, grants flow-control
// credit, and decodes row batches ('R') or merges partial aggregates
// ('A', via onAgg). It only delivers rows or partials after winning
// the claim shared with a hedged twin.
func (c *Coordinator) legStream(ctx context.Context, pool *nodePool, req Request, codec *table.Codec,
	claim *atomic.Int32, id int32, onBatch func(dest int, rows []table.Row), onAgg func(payload []byte) error) (Trailer, bool, error) {

	// ctxErr prefers the context's error over the failure it induced.
	ctxErr := func(err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return err
	}

	sess, release, err := pool.session(ctx)
	if err != nil {
		return Trailer{}, false, ctxErr(err)
	}
	defer release()
	leg, err := sess.start(req)
	if err != nil {
		return Trailer{}, false, ctxErr(err)
	}
	// A context cancellation abandons the leg: the node is told to
	// cancel, the demux reader drops the query's residue frames, and
	// the blocked next() below returns.
	stop := context.AfterFunc(ctx, func() {
		sess.abandon(leg, ctx.Err())
	})
	defer stop()
	// The stall watchdog abandons a leg with no frame progress within
	// LegStallAfter — a blackholed stream on an otherwise live session,
	// which no session-level timeout can see. It is reset after every
	// frame; a fire racing a late frame only costs a spurious
	// re-dispatch, never a duplicate delivery (the leg's remaining
	// events drain before next returns the stall error, and on a
	// replicated partition the stage withholds them anyway).
	var watchdog *time.Timer
	if c.LegStallAfter > 0 {
		watchdog = time.AfterFunc(c.LegStallAfter, func() {
			sess.abandon(leg, errLegStalled)
		})
		defer watchdog.Stop()
	}

	claimed := false
	tryClaim := func() bool {
		if claimed {
			return true
		}
		if claim.CompareAndSwap(0, id) || claim.Load() == id {
			claimed = true
		}
		return claimed
	}

	for {
		ev, err := leg.next()
		if watchdog != nil {
			watchdog.Reset(c.LegStallAfter)
		}
		if err != nil {
			sess.abandon(leg, err)
			return Trailer{}, claimed, ctxErr(err)
		}
		switch ev.typ {
		case frameRows:
			if !tryClaim() {
				sess.abandon(leg, errHedgeLost)
				return Trailer{}, false, errHedgeLost
			}
			if len(ev.payload) < 8 {
				sess.abandon(leg, errHedgeLost)
				return Trailer{}, claimed, fmt.Errorf("cluster: short row batch")
			}
			dest := int(binary.LittleEndian.Uint32(ev.payload[0:]))
			count := int(binary.LittleEndian.Uint32(ev.payload[4:]))
			body := ev.payload[8:]
			if count < 0 || len(body) != count*codec.RowBytes() {
				sess.abandon(leg, errHedgeLost)
				return Trailer{}, claimed, fmt.Errorf("cluster: row batch of %d bytes does not hold %d rows",
					len(body), count)
			}
			rows, err := codec.DecodeAll(body)
			if err != nil {
				sess.abandon(leg, err)
				return Trailer{}, claimed, err
			}
			onBatch(dest, rows)
			leg.consumedRows(len(ev.payload))
		case frameAgg:
			if !tryClaim() {
				sess.abandon(leg, errHedgeLost)
				return Trailer{}, false, errHedgeLost
			}
			if onAgg == nil {
				err := fmt.Errorf("cluster: unexpected aggregate frame for a row query")
				sess.abandon(leg, err)
				return Trailer{}, claimed, err
			}
			if err := onAgg(ev.payload); err != nil {
				sess.abandon(leg, err)
				return Trailer{}, claimed, err
			}
			leg.consumedRows(len(ev.payload))
		case frameDone:
			if !tryClaim() {
				return Trailer{}, false, errHedgeLost
			}
			var tr Trailer
			if err := json.Unmarshal(ev.payload, &tr); err != nil {
				return Trailer{}, claimed, fmt.Errorf("cluster: bad trailer: %w", err)
			}
			return tr, claimed, nil
		case frameBusy:
			return Trailer{}, claimed, fmt.Errorf("node shed query: %w", ErrOverloaded)
		case frameError:
			return Trailer{}, claimed, fmt.Errorf("%s", ev.payload)
		default:
			sess.abandon(leg, errHedgeLost)
			return Trailer{}, claimed, fmt.Errorf("cluster: unexpected frame %q", ev.typ)
		}
	}
}

// dialNode connects to a node with bounded retry and exponential
// backoff: transient dial failures (a node restarting, a full accept
// queue) are absorbed instead of failing the whole query.
func (c *Coordinator) dialNode(ctx context.Context, node string) (net.Conn, error) {
	dial := c.dialContext
	if dial == nil {
		d := &net.Dialer{Timeout: c.DialTimeout}
		dial = d.DialContext
	}
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	var lastErr error
	for attempt := 0; attempt <= c.DialRetries; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
			backoff *= 2
		}
		conn, err := dial(ctx, "tcp", c.addrs[node])
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("dial failed after %d attempts: %w", c.DialRetries+1, lastErr)
}

// Nodes returns the node names the coordinator dispatches to, sorted.
func (c *Coordinator) Nodes() []string {
	out := append([]string(nil), c.svc.Nodes()...)
	sort.Strings(out)
	return out
}
