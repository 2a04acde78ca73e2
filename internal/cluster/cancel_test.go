package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/metadata"
	"datavirt/internal/table"
)

// buildCoordinator compiles a coordinator whose every node resolves to
// addr (used to point a whole descriptor at one fake node server).
func buildCoordinator(t *testing.T, addr string) *Coordinator {
	t.Helper()
	s := defaultSpec()
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, "CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[string]string{}
	for i := 0; i < s.Partitions; i++ {
		addrs[fmt.Sprintf("node%d", i)] = addr
	}
	coord, err := NewCoordinator(d, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// collectRows drains a cursor into a slice, copying each row before
// the next Next, and returns the iteration error.
func collectRows(rows *core.Rows) ([]table.Row, error) {
	var out []table.Row
	for rows.Next() {
		out = table.CopyRows(out, []table.Row{rows.Row()})
	}
	err := rows.Err()
	rows.Close()
	return out, err
}

// TestCoordinatorDeadlineAgainstStalledNode points the coordinator at
// a node server that accepts connections and then never responds; the
// context deadline must fire and surface promptly as the query error.
func TestCoordinatorDeadlineAgainstStalledNode(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var held []net.Conn
	var mu sync.Mutex
	go func() { // accept and stall: read nothing, send nothing
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	defer func() {
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	}()

	coord := buildCoordinator(t, ln.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	rows, err := coord.QueryContext(ctx, "SELECT TIME FROM IparsData")
	if err != nil {
		t.Fatal(err)
	}
	_, err = collectRows(rows)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled node: err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
}

// trackedConn observes Close so tests can prove no connection leaks.
type trackedConn struct {
	net.Conn
	closed *atomic.Bool
}

func (c *trackedConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// trackingDialer wraps real dials, remembering every connection.
type trackingDialer struct {
	mu    sync.Mutex
	conns []*atomic.Bool
}

func (d *trackingDialer) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	closed := &atomic.Bool{}
	d.mu.Lock()
	d.conns = append(d.conns, closed)
	d.mu.Unlock()
	return &trackedConn{Conn: conn, closed: closed}, nil
}

func (d *trackingDialer) assertAllClosed(t *testing.T) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.conns) == 0 {
		t.Fatal("no connections were dialed; test is vacuous")
	}
	for i, closed := range d.conns {
		if !closed.Load() {
			t.Errorf("connection %d of %d leaked (never closed)", i, len(d.conns))
		}
	}
}

// TestNoConnLeakOnMisbehavingNode is the regression test for the
// queryNode connection leak: whichever way a node misbehaves — closing
// during the handshake, or answering with a garbage frame — every
// dialed connection must be closed by the time the query returns.
func TestNoConnLeakOnMisbehavingNode(t *testing.T) {
	cases := []struct {
		name  string
		serve func(c net.Conn)
	}{
		{"close-during-handshake", func(c net.Conn) {
			c.Close() // handshake write (or first read) fails
		}},
		{"garbage-frame", func(c net.Conn) {
			readFrame(c, nil)                      //nolint:errcheck
			writeFrame(c, 'X', 1, []byte("bogus")) //nolint:errcheck
			time.Sleep(100 * time.Millisecond)     // outlive the client
			c.Close()
		}},
		{"corrupt-length", func(c net.Conn) {
			readFrame(c, nil)                                       //nolint:errcheck
			c.Write([]byte{0xff, 0xff, 0xff, 0xff, frameRows, 0x0}) //nolint:errcheck
			time.Sleep(100 * time.Millisecond)
			c.Close()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					go tc.serve(c)
				}
			}()

			coord := buildCoordinator(t, ln.Addr().String())
			coord.DialRetries = 0
			dialer := &trackingDialer{}
			coord.dialContext = dialer.dial
			rows, err := coord.QueryContext(context.Background(), "SELECT TIME FROM IparsData")
			if err == nil {
				_, err = collectRows(rows)
			}
			if err == nil {
				t.Fatal("misbehaving node produced no error")
			}
			coord.Close()
			dialer.assertAllClosed(t)
		})
	}
}

// TestDialRetryWithBackoff verifies dead nodes are retried the
// configured number of times before the query fails.
func TestDialRetryWithBackoff(t *testing.T) {
	coord := buildCoordinator(t, "127.0.0.1:1") // nobody listens
	coord.DialRetries = 2
	coord.RetryBackoff = time.Millisecond
	var attempts atomic.Int64
	coord.dialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		attempts.Add(1)
		return nil, fmt.Errorf("connection refused (simulated)")
	}
	rows, err := coord.QueryContext(context.Background(), "SELECT TIME FROM IparsData")
	if err == nil {
		_, err = collectRows(rows)
	}
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err = %v", err)
	}
	// 3 nodes × 3 attempts each.
	if got := attempts.Load(); got != 9 {
		t.Errorf("dial attempts = %d, want 9", got)
	}

	// Cancellation aborts the backoff wait immediately.
	coord.RetryBackoff = time.Hour
	attempts.Store(0)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	rows, err = coord.QueryContext(ctx, "SELECT TIME FROM IparsData")
	if err == nil {
		_, err = collectRows(rows)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel during backoff: err = %v", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Error("cancellation did not interrupt backoff")
	}
}

// TestClusterQueryCancelledMidStream cancels the context from the emit
// callback of a real distributed query; the coordinator must return
// ctx.Err() promptly and leave no goroutines behind.
func TestClusterQueryCancelledMidStream(t *testing.T) {
	coord, _ := startCluster(t, gen.IparsSpec{
		Realizations: 2, TimeSteps: 20, GridPoints: 201, Partitions: 3,
		Attrs: 6, Seed: 9,
	})
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := coord.QueryContext(ctx, "SELECT * FROM IparsData")
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for rows.Next() {
		if n++; n == 100 {
			cancel()
		}
	}
	err = rows.Err()
	rows.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancel: err = %v", err)
	}
	// Coordinator-side goroutines must drain once the pooled connections
	// are released (node-side handlers close with their connections).
	coord.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestClusterQueryStats checks the coordinator's per-query stats on a
// successful distributed query.
func TestClusterQueryStats(t *testing.T) {
	coord, s := startCluster(t, defaultSpec())
	_, res, err := coord.CollectQueryContext(context.Background(), "SELECT TIME FROM IparsData")
	if err != nil {
		t.Fatal(err)
	}
	qs := res.QueryStats
	if qs.RowsScanned != s.IparsTotalRows() || qs.RowsEmitted != s.IparsTotalRows() {
		t.Errorf("rows: %+v", qs)
	}
	if qs.ChunksPlanned == 0 || qs.ChunksRead == 0 {
		t.Errorf("chunks not counted: %+v", qs)
	}
	if qs.NetTime <= 0 || qs.ExtractTime <= 0 {
		t.Errorf("stage times not recorded: net=%v extract=%v", qs.NetTime, qs.ExtractTime)
	}
	if qs.PlanTime <= 0 || qs.IndexTime <= 0 {
		t.Errorf("prepare times not recorded: plan=%v index=%v", qs.PlanTime, qs.IndexTime)
	}
}

// TestNodeHonoursForwardedDeadline gives the whole query a deadline far
// shorter than the node needs: the node-side context must stop its
// extraction (we observe the query failing with DeadlineExceeded while
// the node keeps serving later queries).
func TestNodeHonoursForwardedDeadline(t *testing.T) {
	coord, _ := startCluster(t, gen.IparsSpec{
		Realizations: 2, TimeSteps: 20, GridPoints: 300, Partitions: 3,
		Attrs: 8, Seed: 13,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	rows, err := coord.QueryContext(ctx, "SELECT * FROM IparsData")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		time.Sleep(100 * time.Microsecond) // slow client keeps the stream alive past the deadline
	}
	err = rows.Err()
	rows.Close()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forwarded deadline: err = %v", err)
	}
	// The cluster still works afterwards.
	if _, _, err := coord.CollectQueryContext(context.Background(), "SELECT TIME FROM IparsData WHERE TIME = 1"); err != nil {
		t.Fatalf("cluster unhealthy after timed-out query: %v", err)
	}
}
