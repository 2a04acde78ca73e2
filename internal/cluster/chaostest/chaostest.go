// Package chaostest is the cluster's fault-injection harness: it
// stands up a real replicated cluster — generated dataset, one node
// server per cluster node, TCP proxies in front of every node, a real
// coordinator — and executes scripted fault plans against in-flight
// queries: kill a node after K result frames, blackhole a session
// mid-stream, corrupt sidecar files, delay or short-read a node's
// block I/O (via cachetest), or drive a node into an admission shed
// storm. Tests assert the paper-level contract: a query that survives
// a fault returns byte-identical rows and aggregates to a healthy
// run, within bounded latency, leaking no goroutines.
//
// The package is test support, not production code: it lives under
// internal/cluster so the chaos suite ships with the subsystem it
// exercises, and every helper takes a testing.TB.
package chaostest

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datavirt/internal/cluster"
	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/metadata"
	"datavirt/internal/table"
)

// Config shapes a chaos cluster before traffic arrives.
type Config struct {
	// Spec is the dataset to generate; the zero value means
	// DefaultSpec (3 partitions, 2-way chained replication).
	Spec gen.IparsSpec
	// Node, when set, configures each node server (admission knobs,
	// tracer) before it accepts traffic.
	Node func(name string, n *cluster.Node)
	// Service, when set, configures each node's core service (cache
	// backends, fault-injecting OpenFile hooks) before it serves.
	Service func(name string, svc *core.Service)
}

// DefaultSpec is a dataset big enough that every partition's full
// scan spans several row-batch frames — room to kill a node strictly
// mid-stream.
func DefaultSpec() gen.IparsSpec {
	return gen.IparsSpec{
		Realizations: 2, TimeSteps: 10, GridPoints: 120, Partitions: 3,
		Attrs: 4, Replicas: 2, Seed: 33,
	}
}

// Cluster is a running chaos cluster. Everything is shut down by
// t.Cleanup; kill faults may shut nodes down earlier.
type Cluster struct {
	Coord    *cluster.Coordinator
	Nodes    map[string]*cluster.Node
	Proxies  map[string]*Proxy
	Services map[string]*core.Service
	// Local is a coordinator-independent service over the same data
	// root: the healthy baseline chaos runs are compared against.
	Local *core.Service

	Spec     gen.IparsSpec
	Root     string
	DescPath string

	desc  *metadata.Descriptor
	addrs map[string]string
}

// ExtraCoordinator opens an independent coordinator over the same
// proxied cluster — its session pools and in-flight accounting are
// separate from Coord's, the way two client processes would be.
func (c *Cluster) ExtraCoordinator(t testing.TB) *cluster.Coordinator {
	t.Helper()
	coord, err := cluster.NewCoordinator(c.desc, c.addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() }) //nolint:errcheck — always nil
	return coord
}

// Start generates the dataset and launches the cluster: one node per
// descriptor node name, a frame-counting proxy in front of each, and
// a coordinator dialing through the proxies.
func Start(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	spec := cfg.Spec
	if spec == (gen.IparsSpec{}) {
		spec = DefaultSpec()
	}
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, spec, "CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	return StartAt(t, cfg, spec, root, descPath)
}

// StartAt launches the cluster over an already-materialized dataset —
// the hook for plans that damage files (stale sidecars) before any
// service opens them.
func StartAt(t testing.TB, cfg Config, spec gen.IparsSpec, root, descPath string) *Cluster {
	t.Helper()
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.Open(descPath, root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })

	c := &Cluster{
		Nodes:    map[string]*cluster.Node{},
		Proxies:  map[string]*Proxy{},
		Services: map[string]*core.Service{},
		Local:    local,
		Spec:     spec,
		Root:     root,
		DescPath: descPath,
	}
	addrs := map[string]string{}
	for _, name := range local.AllNodes() {
		svc, err := core.Open(descPath, root)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Service != nil {
			cfg.Service(name, svc)
		}
		node, err := cluster.StartNode(context.Background(), name, svc, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node.Logf = func(string, ...any) {} // chaos makes nodes noisy by design
		if cfg.Node != nil {
			cfg.Node(name, node)
		}
		t.Cleanup(func() { node.Close() })
		proxy := NewProxy(t, node.Addr())
		c.Nodes[name] = node
		c.Services[name] = svc
		c.Proxies[name] = proxy
		addrs[name] = proxy.Addr()
	}
	coord, err := cluster.NewCoordinator(d, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() }) //nolint:errcheck — always nil
	c.Coord = coord
	c.desc = d
	c.addrs = addrs
	return c
}

// Kill closes a node mid-everything: listener, connections, in-flight
// extractions, and the proxy in front of it — the whole machine gone.
func (c *Cluster) Kill(name string) {
	c.Proxies[name].Close()
	c.Nodes[name].Close() //nolint:errcheck — the node is being killed, its exit error is the point
}

// CollectSorted runs sql through the coordinator and returns the rows
// as sorted formatted strings (the cluster's only ordering guarantee
// is per-leg, so comparisons sort) plus the merged result.
func (c *Cluster) CollectSorted(t testing.TB, sql string) ([]string, *cluster.Result) {
	t.Helper()
	rows, res, err := c.Coord.CollectQueryContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return SortedRows(rows), res
}

// LocalSorted runs sql on the baseline service.
func (c *Cluster) LocalSorted(t testing.TB, sql string) []string {
	t.Helper()
	return localSorted(t, c.Local, sql)
}

// localSorted prepares and collects sql on svc.
func localSorted(t testing.TB, svc *core.Service, sql string) []string {
	t.Helper()
	prep, err := svc.PrepareContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("local %q: %v", sql, err)
	}
	rows, _, err := prep.CollectContext(context.Background(), core.Options{})
	if err != nil {
		t.Fatalf("local %q: %v", sql, err)
	}
	return SortedRows(rows)
}

// SortedRows formats and sorts rows for order-insensitive comparison.
func SortedRows(rows []table.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = table.FormatRow(r)
	}
	sort.Strings(keys)
	return keys
}

// AssertSameRows fails unless got and want are byte-identical.
func AssertSameRows(t testing.TB, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// WaitGoroutines polls until the goroutine count drops back to base,
// failing the test if it does not within two seconds.
func WaitGoroutines(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("goroutines leaked: %d before, %d after", base, g)
	}
}

// Proxy is a TCP interposer in front of one node. It forwards frames
// both ways, counting server→client data frames ('R' row batches and
// 'A' partial aggregates) across all connections, and executes one
// scripted fault when the count crosses a threshold:
//
//   - KillAfter: drop every link and refuse new ones (paired with
//     Cluster.Kill for a whole-machine crash).
//   - BlackholeAfter: keep the connections open but deliver nothing
//     further to the client — the stalled-stream failure mode only a
//     per-leg watchdog can see.
//
// StallFirstConn additionally blackholes the first accepted
// connection from byte zero, deterministically forcing the
// coordinator's hedge path before any scripted fault fires.
type Proxy struct {
	ln     net.Listener
	target string

	frames    atomic.Int64 // data frames forwarded server→client
	threshold int64
	action    int32 // 0 none, 1 kill, 2 blackhole
	fired     atomic.Bool

	onKill []func()

	stallFirst atomic.Bool
	connSeq    atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]bool //dvlint:guardedby mu
	closed bool              //dvlint:guardedby mu
}

// NewProxy starts a proxy for target; it is closed by t.Cleanup (or a
// kill fault).
func NewProxy(t testing.TB, target string) *Proxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &Proxy{ln: ln, target: target, conns: map[net.Conn]bool{}}
	t.Cleanup(p.Close)
	go p.acceptLoop()
	return p
}

// Addr is the address the coordinator should dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// KillAfter arms the kill fault: after n data frames have been
// forwarded, the next server frame of any kind is not delivered and
// every link drops; each also func runs once after the drop (the
// usual one closes the node itself, turning a link failure into a
// whole-machine crash). Configure before traffic.
func (p *Proxy) KillAfter(n int64, also ...func()) { p.threshold, p.action, p.onKill = n, 1, also }

// BlackholeAfter arms the blackhole fault: after n data frames, the
// proxy swallows all further server→client traffic while keeping the
// connections alive. Configure before traffic.
func (p *Proxy) BlackholeAfter(n int64) { p.threshold, p.action = n, 2 }

// StallFirstConn blackholes the first accepted connection entirely,
// so the first session to this node never produces a frame.
func (p *Proxy) StallFirstConn() { p.stallFirst.Store(true) }

// DataFrames reports how many data frames the proxy delivered.
func (p *Proxy) DataFrames() int64 { return p.frames.Load() }

// Close drops every link and stops accepting. Idempotent.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	p.ln.Close() //nolint:errcheck — teardown
	for _, c := range conns {
		c.Close() //nolint:errcheck — teardown
	}
}

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = true
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // proxy closed
		}
		seq := p.connSeq.Add(1)
		if p.stallFirst.Load() && seq == 1 {
			// The stalled session: swallow the client's bytes (the query
			// frame included) and never answer.
			if !p.track(client) {
				client.Close()
				return
			}
			go func() {
				io.Copy(io.Discard, client) //nolint:errcheck — blackholed by design
				p.untrack(client)
				client.Close()
			}()
			continue
		}
		server, err := net.Dial("tcp", p.target)
		if err != nil {
			client.Close()
			continue // node killed; refuse by hanging up
		}
		if !p.track(client) || !p.track(server) {
			client.Close()
			server.Close()
			return
		}
		go func() {
			// Client→server passes through untouched (cancel frames keep
			// flowing even into a blackholed node).
			io.Copy(server, client) //nolint:errcheck — proxy link, errors mean a side hung up
			server.Close()
		}()
		go func() {
			p.pump(server, client)
			p.untrack(client)
			p.untrack(server)
			client.Close()
			server.Close()
		}()
	}
}

// pump forwards server→client frame by frame, firing the scripted
// fault when the shared data-frame count crosses the threshold.
func (p *Proxy) pump(server, client net.Conn) {
	var hdr [9]byte // len uint32 LE | type byte | qid uint32 LE
	buf := make([]byte, 0, 1<<16)
	for {
		if _, err := io.ReadFull(server, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(server, buf); err != nil {
			return
		}
		typ := hdr[4]
		if p.action != 0 && p.frames.Load() >= p.threshold && p.fired.CompareAndSwap(false, true) {
			if p.action == 1 {
				p.Close()
				for _, f := range p.onKill {
					f()
				}
				return
			}
		}
		if p.fired.Load() && p.action == 2 {
			continue // blackhole: swallow, stay connected
		}
		if _, err := client.Write(hdr[:]); err != nil {
			return
		}
		if _, err := client.Write(buf); err != nil {
			return
		}
		if typ == 'R' || typ == 'A' {
			p.frames.Add(1)
		}
	}
}
