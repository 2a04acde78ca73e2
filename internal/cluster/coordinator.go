package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
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
// of idle connections to every node server, fans each query out — one
// leg per partition, each on a connection of its own — and merges or
// routes the returned tuple streams. It performs no file I/O.
//
// The knob fields may be adjusted after NewCoordinator and before the
// first query; they tolerate slow, overloaded or dead nodes in the
// spirit of the paper's loosely coupled STORM services. A failed leg
// has one recovery path, runLeg's loop: dial retries, overload retries,
// and the re-dispatch of a leg that stalled or lost its node before
// anything reached the merge. Call Close when done to release the
// pooled connections.
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
	// OverloadRetries is how many times a leg shed by a node's
	// admission control (ErrOverloaded) is retried with backoff before
	// the error is surfaced (default 2; negative means none).
	OverloadRetries int
	// OverloadBackoff is the first overload retry's delay, doubled per
	// attempt (default 25ms).
	OverloadBackoff time.Duration
	// LegStallAfter, when positive, bounds the wait for each frame of a
	// leg: it is the read deadline on the leg's connection, and a leg
	// whose node sends nothing for this long fails with errLegStalled and
	// its connection is closed. If nothing of it reached the merge yet,
	// it is re-dispatched — to a standby replica when its partition has a
	// live one, else once more to the same node over a fresh connection.
	// Zero disables it.
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

// Close closes every pooled node connection, idle or busy. In-flight
// queries fail; the coordinator may be used again afterwards (pools
// re-form).
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

// pool returns the connection pool for node, creating it on first use.
func (c *Coordinator) pool(node string) *nodePool {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	if c.pools == nil {
		c.pools = map[string]*nodePool{}
	}
	if p, ok := c.pools[node]; ok {
		return p
	}
	p := &nodePool{
		dial: func(ctx context.Context) (net.Conn, error) { return c.dialNode(ctx, node) },
		busy: map[*poolConn]bool{},
	}
	c.pools[node] = p
	return p
}

// Result carries the merged outcome of a distributed query.
type Result struct {
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
	// QueryStats is the per-query observability record: the legs'
	// records summed, except that chunks planned and the plan and index
	// times are the coordinator's, extract time is the slowest node's
	// (the straggler), net time is the fan-out wall time, and the
	// serving counters report admission queueing, load shedding and
	// re-dispatches across the legs.
	QueryStats obs.QueryStats
}

// QueryContext runs sql on every node and returns a streaming cursor
// over the merged rows — the same API shape as core.Service, so local
// and distributed execution are interchangeable to clients. Columns
// follow the SELECT list; rows arrive in a deterministic order only
// within each node's stream. Cancelling ctx (or Close on the cursor)
// abandons every node leg promptly, and a context deadline is
// forwarded to the nodes so they stop extracting server-side. The
// cursor's Stats include the serving counters (queued/shed/redispatched).
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
		// Each decoded 'R' frame goes to the cursor whole, in place.
		res, err := c.runPrepared(runCtx, sql, prep, storm.PartitionSpec{}, func(dest int, rows []table.Row) error {
			return deliver(rows)
		})
		if err != nil {
			return obs.QueryStats{}, err
		}
		return res.QueryStats, nil
	}), nil
}

// QueryFuncContext runs sql on every node and calls emit for each
// returned row (one call at a time; the row is only valid during the
// call, per the extractor.EmitFunc reuse contract).
//
// Deprecated: use QueryContext, which returns a streaming cursor; this
// callback shim remains for push-style clients and returns the full
// per-node Result.
// Pinned by benchmark/layers.go (the cluster layer's overhead probe).
func (c *Coordinator) QueryFuncContext(ctx context.Context, sql string, emit func(row table.Row) error) (*Result, error) {
	perRow := extractor.PerRow(emit)
	return c.run(ctx, sql, storm.PartitionSpec{}, func(dest int, rows []table.Row) error {
		return perRow(rows)
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

// CollectQueryContext runs sql and returns all rows (copied), in a
// deterministic order only within each node's stream.
func (c *Coordinator) CollectQueryContext(ctx context.Context, sql string) ([]table.Row, *Result, error) {
	var rows []table.Row
	res, err := c.run(ctx, sql, storm.PartitionSpec{}, func(dest int, batch []table.Row) error {
		rows = table.CopyRows(rows, batch)
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
	shed atomic.Int64
	// redispatched counts legs dispatched more than once (any reason);
	// failovers counts re-dispatches to a different replica after the
	// serving node failed or stalled; retries counts same-node overload
	// retries of a replicated leg.
	redispatched atomic.Int64
	failovers    atomic.Int64
	retries      atomic.Int64
}

// runPrepared fans the prepared query out to every node over the
// connection pools, merges the streams and assembles the Result. Rows
// reach deliver a batch at a time — one decoded 'R' frame (or the
// finalized groups of an aggregate) with its partition destination —
// under the extractor.EmitFunc contract: each leg decodes its frames
// into one reused block, so every batch is borrowed. Legs call deliver
// one at a time, under the mutex that also serializes their aggregate
// merges, and hold it while deliver blocks: that wait is the fan-in's
// flow control, and a cancelled query ends it. The first deliver error
// cancels every leg, so a failing consumer does not wait for the rest
// of the cluster's result.
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
		Version:   protocolVersion,
		SQL:       sql,
		Partition: spec,
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

	// The legs run under their own context so a deliver error can stop
	// them; the caller's ctx still decides whether that error or the
	// caller's cancellation is reported.
	legCtx, cancelLegs := context.WithCancel(ctx)
	defer cancelLegs()

	var mu sync.Mutex
	var deliverErr error // the first deliver error; guarded by mu until the legs end
	onRows := func(dest int, rows []table.Row) error {
		mu.Lock()
		defer mu.Unlock()
		if deliverErr == nil {
			if deliverErr = deliver(dest, rows); deliverErr != nil {
				cancelLegs()
			}
		}
		return deliverErr
	}
	// Aggregate queries: every leg ships partial aggregates in 'A'
	// frames, merged into one coordinator-side state; the final groups
	// are delivered after the fan-in.
	var aggState *query.AggState
	var onAgg func(payload []byte) error
	if prep.Agg != nil {
		aggState = query.NewAggState(prep.Agg)
		onAgg = func(payload []byte) error {
			mu.Lock()
			defer mu.Unlock()
			return aggState.MergeEncoded(payload)
		}
	}

	nodes := c.svc.Nodes()
	type legResult struct {
		trailer Trailer
		err     error
	}
	legs := make([]legResult, len(nodes))
	var counters legCounters
	var wg sync.WaitGroup
	netStart := time.Now()
	for i, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			endNet := obs.Begin(tracer, sql, obs.StageNet)
			tr, err := c.runLeg(legCtx, node, req, codec, &counters, onRows, onAgg)
			endNet(err)
			legs[i] = legResult{tr, err}
		}()
	}
	wg.Wait()

	res := &Result{PerNode: map[string]int64{}}
	firstErr := deliverErr
	var slowestExtract time.Duration
	for i, leg := range legs {
		if leg.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: node %s: %w", nodes[i], leg.err)
		}
		res.QueryStats.Add(leg.trailer.Stats)
		res.Rows += leg.trailer.Rows
		res.SentBytes += leg.trailer.SentBytes
		res.PerNode[nodes[i]] = leg.trailer.Rows
		slowestExtract = max(slowestExtract, leg.trailer.Stats.ExtractTime)
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
	// The legs' records are summed above; the coordinator owns the
	// fields below and sets them over whatever the legs reported.
	st := &res.QueryStats
	st.ChunksPlanned = len(prep.AFCs)
	st.PlanTime, st.IndexTime = prep.PrepareStats()
	st.ExtractTime = slowestExtract
	st.NetTime = time.Since(netStart)
	// Shedding is observed by the legs; admission queueing is summed
	// from the nodes' records above.
	st.ShedQueries = counters.shed.Load()
	// Failover counters: dispatches beyond a leg's first, and why.
	st.LegRedispatches = counters.redispatched.Load()
	st.ReplicaFailovers = counters.failovers.Load()
	st.ReplicaRetries = counters.retries.Load()
	return res, nil
}

// runLeg drives one partition's leg: replica placement, connection
// checkout, bounded retry of legs shed by admission control, and the
// re-dispatch of a leg whose serving node dies or stalls before any of
// its results reached the merge. The leg decodes its 'R' frames into
// one block of its own, reused frame after frame (and, through
// legBlocks, query after query), and hands each to onRows borrowed. A replicated leg stages its results
// (legStage) so "before" lasts until the stage commits; an unreplicated
// leg streams straight into the merge, so only a leg that has delivered
// no frame is replayed. A failed leg moves to a standby replica when a
// live one exists; a stalled leg with none left is retried once on the
// same node, over another connection.
//
// The loop terminates: every iteration either returns, permanently
// adds a node to failed (candidates only shrink), consumes one unit of
// the overload-retry budget, or consumes the single same-node stall
// retry.
func (c *Coordinator) runLeg(ctx context.Context, partition string, req Request, codec *table.Codec,
	counters *legCounters, onRows func(dest int, rows []table.Row) error, onAgg func(payload []byte) error) (_ Trailer, err error) {

	block := legBlocks.Get().(*[]table.Row)
	defer func() {
		if err == nil { // after an error the consumer may still be reading the last batch lent
			legBlocks.Put(block)
		}
	}()
	onFrame := func(payload []byte) error {
		dest, rows, err := decodeRowsFrame(codec, block, payload)
		if err != nil {
			return err
		}
		return onRows(dest, rows)
	}
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
		stage = &legStage{budget: budget, onRows: onFrame, onAgg: onAgg}
		onFrame = stage.rows
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
	stallRetried := false
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
		tr, delivered, err := c.legStream(ctx, pool, req, onFrame, onAgg)
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
		// Hard failure: connection loss, stall, or a server error. Once
		// results reached the merge the leg cannot be replayed without
		// duplicating them.
		if stage != nil {
			delivered = stage.committed
		}
		if delivered {
			return Trailer{}, err
		}
		failed[node] = true
		if _, ok := c.pickReplica(replicas, failed, ""); ok {
			counters.failovers.Add(1)
		} else if errors.Is(err, errLegStalled) && !stallRetried {
			// A stalled stream on a live node: its connection may be stuck
			// while the node is not, so the node gets one more try.
			stallRetried = true
			delete(failed, node)
		} else {
			return Trailer{}, err
		}
		// Nothing reached the merge: discard any staged partial stream
		// and replay the whole leg.
		if stage != nil {
			stage.reset()
		}
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

// legStream runs one wire stream of a leg on a pooled connection: it
// sends the query, reads its frames on this goroutine, and hands each
// row batch ('R') payload to onRows and each partial-aggregate ('A')
// payload to onAgg; a payload is only valid during the call.
// delivered reports whether any frame was taken by onRows or onAgg,
// i.e. whether a failed stream can still be replayed. A reused
// connection that turns out closed before its first frame — the node
// hung up while it sat idle — is replaced by a fresh dial, and that
// failure is not the leg's.
func (c *Coordinator) legStream(ctx context.Context, pool *nodePool, req Request,
	onRows, onAgg func(payload []byte) error) (tr Trailer, delivered bool, err error) {

	for fresh := false; ; fresh = true {
		pc, err := pool.get(ctx, fresh)
		if err != nil {
			return Trailer{}, false, ctxErr(ctx, err)
		}
		tr, frames, delivered, err := c.legOn(ctx, pool, pc, req, onRows, onAgg)
		if err != nil && pc.reused && frames == 0 && ctx.Err() == nil && isClosedConn(err) {
			continue
		}
		return tr, delivered, ctxErr(ctx, err)
	}
}

// legOn runs one leg on pc and checks pc back into pool: kept after a
// terminal frame, closed after anything else. Cancelling ctx closes
// the connection, which the node reads as the query's cancellation.
func (c *Coordinator) legOn(ctx context.Context, pool *nodePool, pc *poolConn, req Request,
	onRows, onAgg func(payload []byte) error) (tr Trailer, frames int, delivered bool, err error) {

	terminal := false
	stop := context.AfterFunc(ctx, func() { pc.Close() })
	defer func() {
		pool.put(pc, stop() && terminal)
	}()
	pc.qid++
	if err := writeJSONFrame(pc, frameQuery, pc.qid, req); err != nil {
		return Trailer{}, 0, false, err
	}
	for {
		if c.LegStallAfter > 0 {
			pc.SetReadDeadline(time.Now().Add(c.LegStallAfter)) //nolint:errcheck — a dead conn fails the read below
		}
		typ, qid, payload, err := readFrame(pc.br, pc.buf)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return Trailer{}, frames, delivered, errLegStalled
		}
		if err != nil {
			return Trailer{}, frames, delivered, err
		}
		frames++
		pc.buf = payload
		if qid != pc.qid {
			return Trailer{}, frames, delivered, fmt.Errorf("cluster: frame for query %d on a connection serving query %d", qid, pc.qid)
		}
		switch typ {
		case frameRows:
			// A frame that failed to decode reached nothing downstream;
			// a consumer's error cancelled the query anyway.
			err = onRows(payload)
			delivered = delivered || err == nil
		case frameAgg:
			if onAgg == nil {
				err = fmt.Errorf("cluster: unexpected aggregate frame for a row query")
			} else {
				delivered = true
				err = onAgg(payload)
			}
		case frameDone:
			terminal = true
			if err := json.Unmarshal(payload, &tr); err != nil {
				return Trailer{}, frames, delivered, fmt.Errorf("cluster: bad trailer: %w", err)
			}
			return tr, frames, delivered, nil
		case frameBusy:
			terminal = true
			return Trailer{}, frames, delivered, fmt.Errorf("node shed query: %w", ErrOverloaded)
		case frameError:
			terminal = true
			return Trailer{}, frames, delivered, fmt.Errorf("%s", payload)
		default:
			err = fmt.Errorf("cluster: unexpected frame %q", typ)
		}
		if err != nil {
			return Trailer{}, frames, delivered, err
		}
	}
}

// ctxErr prefers the context's error over the failure it induced.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil && err != nil {
		return cerr
	}
	return err
}

// legBlocks recycles the legs' decode blocks across queries: for a
// small result, allocating the block costs as much as decoding into it.
var legBlocks = sync.Pool{New: func() any { return new([]table.Row) }}

// decodeRowsFrame decodes an 'R' payload — destID | rowCount | rows —
// into *block, replaced first when too small or not the codec's width.
// A frame claiming more than batchRows rows is refused: no node sends
// one, and the block stays bounded whatever the length prefix says.
func decodeRowsFrame(codec *table.Codec, block *[]table.Row, payload []byte) (dest int, rows []table.Row, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("cluster: short row batch")
	}
	dest = int(binary.LittleEndian.Uint32(payload[0:]))
	count := binary.LittleEndian.Uint32(payload[4:])
	if count > batchRows {
		return 0, nil, fmt.Errorf("cluster: row batch claims %d rows, more than %d", count, batchRows)
	}
	if len(*block) < int(count) || len(*block) > 0 && len((*block)[0]) != codec.NumCols() {
		*block = table.Matrix(int(count), codec.NumCols())
	}
	rows = (*block)[:count]
	if err := codec.DecodeInto(rows, payload[8:]); err != nil {
		return 0, nil, fmt.Errorf("cluster: row batch: %w", err)
	}
	return dest, rows, nil
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
