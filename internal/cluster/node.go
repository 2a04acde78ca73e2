package cluster

import (
	"context"
	"fmt"
	"log"
	"net"
	"runtime"
	"sync"

	"datavirt/internal/core"
	"datavirt/internal/obs"
)

// Node is one cluster node server. It owns the subset of a dataset's
// files whose storage directories name it and answers query requests by
// running the generated index and extraction functions over that subset.
// Each accepted connection carries one query at a time, written to it
// as it is extracted; a node-wide admission controller bounds how many
// queries run at once across all connections and sheds the excess.
type Node struct {
	name string
	svc  *core.Service
	ln   net.Listener
	// replicaOf is the set of partition primaries this node may serve:
	// its own name plus every primary whose replica set lists it.
	// Immutable after StartNode.
	replicaOf map[string]bool

	// baseCtx parents every query's context; Close cancels it so
	// in-flight extractions stop with the listener.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	closed bool              //dvlint:guardedby mu
	conns  map[net.Conn]bool //dvlint:guardedby mu
	wg     sync.WaitGroup

	admOnce sync.Once
	adm     *admission

	// Logf receives diagnostics; defaults to log.Printf. Set before
	// Serve traffic arrives.
	Logf func(format string, args ...any)

	// Tracer, when set, observes every stage of every query this node
	// executes (plan/index on cache misses, extract and filter always,
	// queue waits under admission); pair it with obs.LogTracer for
	// slow-query logging. Set before traffic arrives.
	Tracer obs.Tracer

	// MaxConcurrent bounds how many queries execute at once across all
	// of this node's connections; further arrivals wait in a FIFO queue.
	// Zero means 2×GOMAXPROCS (at least 4). Set before traffic arrives.
	MaxConcurrent int

	// MaxQueue bounds the admission queue; arrivals beyond it are shed
	// with a busy frame (ErrOverloaded at the client). Zero means 64; a
	// negative value means no queue (shed as soon as MaxConcurrent run).
	// Set before traffic arrives.
	MaxQueue int
}

// StartNode launches a node server for the given cluster node name on
// addr (use "127.0.0.1:0" to pick a free port). ctx parents every
// query this node executes: cancelling it stops in-flight extractions,
// and Close does the same for the node's lifetime.
func StartNode(ctx context.Context, name string, svc *core.Service, addr string) (*Node, error) {
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", name, err)
	}
	baseCtx, cancel := context.WithCancel(ctx)
	replicaOf := map[string]bool{name: true}
	for primary, set := range svc.Replicas() {
		for _, r := range set {
			if r == name {
				replicaOf[primary] = true
			}
		}
	}
	n := &Node{
		name:      name,
		svc:       svc,
		ln:        ln,
		replicaOf: replicaOf,
		baseCtx:   baseCtx,
		cancel:    cancel,
		conns:     map[net.Conn]bool{},
		Logf:      log.Printf,
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Name returns the cluster node name served.
func (n *Node) Name() string { return n.name }

// Addr returns the listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// admission lazily builds the node's concurrency gate from the knobs,
// freezing them at first traffic.
func (n *Node) admission() *admission {
	n.admOnce.Do(func() {
		maxC := n.MaxConcurrent
		if maxC <= 0 {
			maxC = 2 * runtime.GOMAXPROCS(0)
			if maxC < 4 {
				maxC = 4
			}
		}
		maxQ := n.MaxQueue
		switch {
		case maxQ == 0:
			maxQ = 64
		case maxQ < 0:
			maxQ = 0
		}
		n.adm = &admission{max: maxC, maxQ: maxQ}
	})
	return n.adm
}

// partitionFor resolves the storage partition a request extracts: the
// request's NodeFilter when set (a coordinator dispatching a failed
// primary's leg to a standby), otherwise this node's own partition. A
// node refuses partitions it holds no replica of — it could not read
// their files.
func (n *Node) partitionFor(req Request) (string, error) {
	if req.NodeFilter == "" || req.NodeFilter == n.name {
		return n.name, nil
	}
	if !n.replicaOf[req.NodeFilter] {
		return "", fmt.Errorf("cluster: node %s does not replicate partition %s", n.name, req.NodeFilter)
	}
	return req.NodeFilter, nil
}

// AdmissionCounters reports how many queries have waited in the
// admission queue and how many were shed over the node's lifetime.
func (n *Node) AdmissionCounters() (queued, shed int64) {
	return n.admission().counters()
}

// Close stops the listener, cancels in-flight extractions and closes
// active connections.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.cancel()
	for c := range n.conns {
		c.Close()
	}
	n.mu.Unlock()
	err := n.ln.Close()
	n.wg.Wait()
	return err
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() {
				n.mu.Lock()
				delete(n.conns, conn)
				n.mu.Unlock()
				conn.Close()
			}()
			if err := n.serveConn(conn); err != nil {
				n.Logf("cluster node %s: %v", n.name, err)
			}
		}()
	}
}
