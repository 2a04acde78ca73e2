package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/metadata"
	"datavirt/internal/obs"
	"datavirt/internal/table"
)

// startOneNode launches a single-node cluster whose node can be
// configured (admission knobs, tracer) before any traffic arrives.
// wrap, when non-nil, rewrites the address the coordinator dials —
// used to interpose a misbehaving proxy in front of the real node.
func startOneNode(t *testing.T, configure func(*Node), wrap func(nodeAddr string) string) (*Coordinator, *Node, gen.IparsSpec) {
	t.Helper()
	s := gen.IparsSpec{
		Realizations: 1, TimeSteps: 5, GridPoints: 24, Partitions: 1,
		Attrs: 4, Seed: 17,
	}
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, "CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.Open(descPath, root)
	if err != nil {
		t.Fatal(err)
	}
	name := svc.Nodes()[0]
	node, err := StartNode(context.Background(), name, svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node.Logf = t.Logf
	t.Cleanup(func() { node.Close() })
	if configure != nil {
		configure(node)
	}
	addr := node.Addr()
	if wrap != nil {
		addr = wrap(addr)
	}
	coord, err := NewCoordinator(d, map[string]string{name: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord, node, s
}

func sortedKeys(rows []table.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = table.FormatRow(r)
	}
	sort.Strings(keys)
	return keys
}

// TestConcurrentClientsSharedPool fires queries from many clients
// concurrently over one coordinator's pooled sessions (so queries
// genuinely interleave on shared connections); every one of them must
// see exactly the rows a sequential run sees.
func TestConcurrentClientsSharedPool(t *testing.T) {
	spec := gen.IparsSpec{
		Realizations: 2, TimeSteps: 10, GridPoints: 120, Partitions: 3,
		Attrs: 6, Seed: 7,
	}
	queries := []string{
		"SELECT * FROM IparsData WHERE TIME >= 2 AND TIME <= 6",
		"SELECT TIME, SOIL FROM IparsData WHERE REL = 1",
		"SELECT * FROM IparsData WHERE TIME > 1000", // empty
		"SELECT TIME FROM IparsData",
	}
	coord, _ := startCluster(t, spec)
	// Sequential baselines through the same coordinator.
	var want [][]string
	for _, sql := range queries {
		rows, _, err := coord.CollectQueryContext(context.Background(), sql)
		if err != nil {
			t.Fatalf("baseline %q: %v", sql, err)
		}
		want = append(want, sortedKeys(rows))
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		q := c % len(queries)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sql := queries[q]
			rows, err := coord.QueryContext(context.Background(), sql)
			if err != nil {
				errs <- fmt.Errorf("%q: %v", sql, err)
				return
			}
			got, err := collectRows(rows)
			if err != nil {
				errs <- fmt.Errorf("%q: %v", sql, err)
				return
			}
			keys := sortedKeys(got)
			if len(keys) != len(want[q]) {
				errs <- fmt.Errorf("%q: %d rows, want %d", sql, len(keys), len(want[q]))
				return
			}
			for i := range keys {
				if keys[i] != want[q][i] {
					errs <- fmt.Errorf("%q: row %d diverges: %s != %s", sql, i, keys[i], want[q][i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// gateTracer blocks one query inside its admission slot: the queue
// stage's StageEnd runs after acquire succeeds, so parking there holds
// the node's only execution slot until the test releases it.
type gateTracer struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gateTracer) StageStart(query string, stage obs.Stage) {}
func (g *gateTracer) StageEnd(query string, stage obs.Stage, d time.Duration, err error) {
	if stage == obs.StageQueue && err == nil && g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.release
	}
}

// TestLoadShedErrOverloaded drives a node whose admission gate has one
// slot and no queue into overload and checks the refusal surfaces as
// ErrOverloaded at the client, and that the node serves normally again
// once the slot frees.
func TestLoadShedErrOverloaded(t *testing.T) {
	gate := &gateTracer{entered: make(chan struct{}), release: make(chan struct{})}
	coord, node, _ := startOneNode(t, func(n *Node) {
		n.MaxConcurrent = 1
		n.MaxQueue = -1 // shed instead of queueing
		n.Tracer = gate
	}, nil)
	coord.OverloadRetries = -1 // surface the shed, don't retry it

	gate.armed.Store(true)
	holderErr := make(chan error, 1)
	go func() {
		_, _, err := coord.CollectQueryContext(context.Background(), "SELECT TIME FROM IparsData")
		holderErr <- err
	}()
	select {
	case <-gate.entered: // the holder owns the node's only slot
	case <-time.After(5 * time.Second):
		t.Fatal("holder query never reached its admission slot")
	}

	_, _, err := coord.CollectQueryContext(context.Background(), "SELECT TIME FROM IparsData")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second query: err = %v, want ErrOverloaded", err)
	}

	close(gate.release)
	if err := <-holderErr; err != nil {
		t.Fatalf("holder query: %v", err)
	}
	if _, shed := node.AdmissionCounters(); shed == 0 {
		t.Error("node counted no shed queries")
	}
	// The node is healthy again with its slot free.
	if _, _, err := coord.CollectQueryContext(context.Background(), "SELECT TIME FROM IparsData"); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestOverloadRetrySucceeds checks the coordinator's default behaviour:
// a shed leg is retried with backoff and succeeds once the slot frees.
func TestOverloadRetrySucceeds(t *testing.T) {
	gate := &gateTracer{entered: make(chan struct{}), release: make(chan struct{})}
	coord, node, s := startOneNode(t, func(n *Node) {
		n.MaxConcurrent = 1
		n.MaxQueue = -1
		n.Tracer = gate
	}, nil)
	coord.OverloadBackoff = 10 * time.Millisecond

	gate.armed.Store(true)
	holderErr := make(chan error, 1)
	go func() {
		_, _, err := coord.CollectQueryContext(context.Background(), "SELECT TIME FROM IparsData")
		holderErr <- err
	}()
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("holder query never reached its admission slot")
	}
	// Free the slot once the node has shed the second query, so the
	// release lands inside its retry backoff rather than racing it.
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for _, shed := node.AdmissionCounters(); shed == 0 && time.Now().Before(deadline); _, shed = node.AdmissionCounters() {
			time.Sleep(time.Millisecond)
		}
		close(gate.release)
	}()
	rows, res, err := coord.CollectQueryContext(context.Background(), "SELECT TIME FROM IparsData")
	if err != nil {
		t.Fatalf("retried query: %v", err)
	}
	if int64(len(rows)) != s.IparsTotalRows() {
		t.Errorf("rows = %d, want %d", len(rows), s.IparsTotalRows())
	}
	if res.QueryStats.ShedQueries == 0 {
		t.Error("stats counted no shed legs despite the retry")
	}
	if err := <-holderErr; err != nil {
		t.Fatalf("holder query: %v", err)
	}
}

// stallFirstProxy listens on a fresh port; the first accepted
// connection is blackholed (reads are swallowed, nothing is ever sent
// back), every later connection is forwarded to target. It simulates a
// node whose first session stalls while the node itself is healthy.
func stallFirstProxy(t *testing.T, target string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var stalled atomic.Bool
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if stalled.CompareAndSwap(false, true) {
				go func() {
					io.Copy(io.Discard, c) //nolint:errcheck
					c.Close()
				}()
				continue
			}
			go func() {
				up, err := net.Dial("tcp", target)
				if err != nil {
					c.Close()
					return
				}
				go func() {
					io.Copy(up, c) //nolint:errcheck
					up.Close()
				}()
				io.Copy(c, up) //nolint:errcheck
				c.Close()
				up.Close()
			}()
		}
	}()
	return ln.Addr().String()
}

// waitGoroutines polls until the goroutine count drops back to before,
// failing the test if it does not within two seconds.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestStallRescuesUnreplicatedLeg runs a query on an unreplicated
// partition whose first session is blackholed: the stall watchdog must
// fail the leg before it delivered anything, runLeg must re-dispatch it
// once to the same node over the pool's second session, the query must
// return complete, correct rows, and afterwards neither goroutines nor
// connections may leak.
func TestStallRescuesUnreplicatedLeg(t *testing.T) {
	coord, _, s := startOneNode(t, nil, func(nodeAddr string) string {
		return stallFirstProxy(t, nodeAddr)
	})
	coord.LegStallAfter = 200 * time.Millisecond
	dialer := &trackingDialer{}
	coord.dialContext = dialer.dial

	before := runtime.NumGoroutine()
	rows, res, err := coord.CollectQueryContext(context.Background(), "SELECT TIME FROM IparsData")
	if err != nil {
		t.Fatalf("stalled query: %v", err)
	}
	if int64(len(rows)) != s.IparsTotalRows() {
		t.Errorf("rows = %d, want %d", len(rows), s.IparsTotalRows())
	}
	if res.QueryStats.LegRedispatches < 1 {
		t.Errorf("LegRedispatches = %d, want >= 1", res.QueryStats.LegRedispatches)
	}

	coord.Close()
	waitGoroutines(t, before)
	dialer.assertAllClosed(t)
}

// TestStallCancellationNoLeaks cancels queries mid-stream while every
// leg runs with the stall watchdog armed and checks nothing —
// goroutines or connections — outlives the coordinator.
func TestStallCancellationNoLeaks(t *testing.T) {
	coord, _ := startCluster(t, gen.IparsSpec{
		Realizations: 2, TimeSteps: 10, GridPoints: 201, Partitions: 3,
		Attrs: 6, Seed: 21,
	})
	coord.LegStallAfter = 2 * time.Second
	dialer := &trackingDialer{}
	coord.dialContext = dialer.dial

	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := coord.QueryContext(ctx, "SELECT * FROM IparsData")
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		var n int
		for rows.Next() {
			if n++; n == 50 {
				cancel()
			}
		}
		if err := rows.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v, want Canceled", i, err)
		}
		rows.Close()
		cancel()
	}

	coord.Close()
	waitGoroutines(t, before)
	dialer.assertAllClosed(t)
}

// TestFairScheduler drives the node session's send policy — pickStream
// and popFrame, the write loop's choice and accounting — over in-memory
// streams, with no network.
func TestFairScheduler(t *testing.T) {
	s := &nodeSession{streams: map[uint32]*outStream{}}
	s.cond = sync.NewCond(&s.mu)
	data := func(n int) outItem { return outItem{typ: frameRows, payload: make([]byte, n)} }
	done := outItem{typ: frameDone}
	add := func(qid uint32, window int64, items ...outItem) *outStream {
		st := &outStream{qid: qid, window: window, pending: items}
		for _, it := range items {
			st.bytes += len(it.payload)
			st.closed = st.closed || !isDataFrame(it.typ)
		}
		s.streams[qid] = st
		return st
	}
	type sent struct {
		qid uint32
		typ byte
	}
	send := func() (sent, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		st := s.pickStream()
		if st == nil {
			return sent{}, false
		}
		item, _ := s.popFrame(st)
		return sent{st.qid, item.typ}, true
	}

	t.Run("point query overtakes a scan", func(t *testing.T) {
		scan := add(1, defaultWindowBytes, data(1000), data(1000), data(1000), done)
		if got, _ := send(); got != (sent{1, frameRows}) {
			t.Fatalf("first frame = %+v, want the scan's", got)
		}
		if scan.vtime != 1000 || scan.window != defaultWindowBytes-1000 || scan.bytes != 2000 {
			t.Fatalf("scan charged vtime %d window %d bytes %d after one frame", scan.vtime, scan.window, scan.bytes)
		}
		add(2, defaultWindowBytes, data(100), done) // arrives behind the scan
		var order []sent
		for {
			got, ok := send()
			if !ok {
				break
			}
			order = append(order, got)
		}
		want := []sent{{2, frameRows}, {2, frameDone}, {1, frameRows}, {1, frameRows}, {1, frameDone}}
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("send order %v, want %v", order, want)
		}
		if len(s.streams) != 0 {
			t.Fatalf("%d streams left after their terminal frames", len(s.streams))
		}
	})

	t.Run("no credit skips data, not the terminal frame", func(t *testing.T) {
		st := add(3, 1500, data(1000), data(1000), data(1000))
		if got, _ := send(); got != (sent{3, frameRows}) {
			t.Fatalf("first frame = %+v, want stream 3's", got)
		}
		if got, _ := send(); got != (sent{3, frameRows}) {
			t.Fatalf("second frame = %+v, want stream 3's (500 bytes of credit left)", got)
		}
		if got, ok := send(); ok {
			t.Fatalf("sent %+v from a stream with %d bytes of credit", got, st.window)
		}
		s.abortStream(st)
		s.finishStream(3, frameError, []byte("cancelled"))
		if got, _ := send(); got != (sent{3, frameError}) {
			t.Fatalf("terminal frame of a stream without credit = %+v, want it sent", got)
		}
		if _, ok := s.streams[3]; ok {
			t.Fatal("stream still registered after its terminal frame")
		}
	})
}
