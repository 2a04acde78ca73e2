package cluster

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxIdlePerNode is how many idle connections a coordinator keeps to
// each node between legs; a burst beyond it dials, and the surplus is
// closed as its legs end.
const maxIdlePerNode = 8

// poolConn is one connection to a node. It carries one leg at a time,
// and its read buffer is reused across frames and legs.
type poolConn struct {
	net.Conn
	br  *bufio.Reader
	buf []byte
	// qid is the query ID of the leg the connection carries; the node
	// echoes it on every frame of its answer.
	qid uint32
	// reused is set when the connection came from the idle list: the
	// node may have hung up while it sat there.
	reused bool
}

// nodePool keeps the idle connections to one node, tracks the busy
// ones so that close can fail their legs, and holds the node's health
// state.
type nodePool struct {
	dial func(ctx context.Context) (net.Conn, error)

	// inflight counts the legs currently dispatched to this node; the
	// coordinator's replica placement prefers the least-loaded live
	// replica of a partition.
	inflight atomic.Int64

	mu     sync.Mutex
	idle   []*poolConn        //dvlint:guardedby mu
	busy   map[*poolConn]bool //dvlint:guardedby mu
	closed bool               //dvlint:guardedby mu

	fails   int       //dvlint:guardedby mu (consecutive failures)
	retryAt time.Time //dvlint:guardedby mu (health gate: fail fast until then)
	lastErr error     //dvlint:guardedby mu
}

// errUnhealthy wraps the gate error so callers can tell a fail-fast
// from a live failure.
type errUnhealthy struct{ err error }

func (e errUnhealthy) Error() string {
	return fmt.Sprintf("cluster: node marked unhealthy after repeated failures: %v", e.err)
}
func (e errUnhealthy) Unwrap() error { return e.err }

// get checks a connection out for one leg: an idle one unless fresh is
// set or none is left, else a new dial.
func (p *nodePool) get(ctx context.Context, fresh bool) (*poolConn, error) {
	p.mu.Lock()
	if p.fails > 0 && !p.retryAt.IsZero() && time.Now().Before(p.retryAt) {
		err := p.lastErr
		p.mu.Unlock()
		return nil, errUnhealthy{err: err}
	}
	if n := len(p.idle); n > 0 && !fresh {
		pc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.busy[pc] = true
		p.mu.Unlock()
		pc.reused = true
		return pc, nil
	}
	p.mu.Unlock()
	conn, err := p.dial(ctx)
	if err != nil {
		return nil, err
	}
	pc := &poolConn{Conn: conn, br: bufio.NewReaderSize(conn, 1<<16)}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		conn.Close()
		return nil, net.ErrClosed
	}
	p.busy[pc] = true
	return pc, nil
}

// put checks a connection back in after its leg. A connection whose
// leg read its terminal frame (reusable) goes back to the idle list
// while there is room; every other one is closed.
func (p *nodePool) put(pc *poolConn, reusable bool) {
	if reusable {
		pc.SetReadDeadline(time.Time{}) //nolint:errcheck — a dead conn fails its next leg's read
	}
	p.mu.Lock()
	delete(p.busy, pc)
	keep := reusable && !p.closed && len(p.idle) < maxIdlePerNode
	if keep {
		p.idle = append(p.idle, pc)
	}
	p.mu.Unlock()
	if !keep {
		pc.Close()
	}
}

// legStarted/legDone bracket a leg dispatch for load accounting.
func (p *nodePool) legStarted() { p.inflight.Add(1) }
func (p *nodePool) legDone()    { p.inflight.Add(-1) }

// load snapshots the pool's placement signals: whether the node's
// health gate is currently armed (repeated failures, fail-fast window
// still open) and how many legs are in flight.
func (p *nodePool) load() (gated bool, inflight int64) {
	p.mu.Lock()
	gated = p.fails > 0 && !p.retryAt.IsZero() && time.Now().Before(p.retryAt)
	p.mu.Unlock()
	return gated, p.inflight.Load()
}

// reportResult updates node health: failure arms (or extends) the
// fail-fast gate with exponential backoff, success clears it.
func (p *nodePool) reportResult(err error, backoff time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err == nil {
		p.fails = 0
		p.retryAt = time.Time{}
		p.lastErr = nil
		return
	}
	p.fails++
	p.lastErr = err
	if p.fails >= 3 { // a couple of strikes before gating
		d := backoff << uint(p.fails-3)
		if d > 5*time.Second {
			d = 5 * time.Second
		}
		p.retryAt = time.Now().Add(d)
	}
}

// close closes every connection, idle and busy: in-flight legs fail,
// and a connection checked in later is closed rather than kept.
func (p *nodePool) close() {
	p.mu.Lock()
	p.closed = true
	conns := p.idle
	p.idle = nil
	for pc := range p.busy {
		conns = append(conns, pc)
	}
	p.mu.Unlock()
	for _, pc := range conns {
		pc.Close()
	}
}
