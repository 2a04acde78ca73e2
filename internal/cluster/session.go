package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// clientSession is one multiplexed client connection to a node server.
// Many queries share it concurrently: a writer mutex serializes frame
// writes, and a demux reader goroutine dispatches incoming frames to
// the per-query leg they are tagged with. Query IDs are monotonically
// assigned per session and never reused, so frames of an abandoned
// query are recognized and dropped.
type clientSession struct {
	conn net.Conn

	wmu sync.Mutex    // serializes writes to conn
	bw  *bufio.Writer //dvlint:guardedby wmu

	mu      sync.Mutex
	legs    map[uint32]*clientLeg //dvlint:guardedby mu
	nextQID uint32                //dvlint:guardedby mu
	err     error                 //dvlint:guardedby mu
	closed  bool                  //dvlint:guardedby mu

	wg sync.WaitGroup
}

// legEvent is one frame delivered to a query leg, payload copied.
type legEvent struct {
	typ     byte
	payload []byte
}

// clientLeg is the client-side state of one query on a session: the
// demux reader appends events, the consuming goroutine pops them.
type clientLeg struct {
	sess *clientSession
	qid  uint32

	mu     sync.Mutex
	cond   *sync.Cond
	events []legEvent //dvlint:guardedby mu
	done   bool       //dvlint:guardedby mu (terminal event queued or leg failed)
	err    error      //dvlint:guardedby mu (session/cancel failure, checked after events drain)

	consumed int64 // bytes eaten since the last credit grant; consumer-goroutine-owned
}

// newClientSession wraps an established connection and starts its
// demux reader.
func newClientSession(conn net.Conn) *clientSession {
	s := &clientSession{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 1<<16),
		legs: map[uint32]*clientLeg{},
	}
	s.wg.Add(1)
	go s.readLoop()
	return s
}

// start registers a new leg and sends its query frame.
func (s *clientSession) start(req Request) (*clientLeg, error) {
	s.mu.Lock()
	if s.err != nil || s.closed {
		err := s.err
		s.mu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return nil, err
	}
	s.nextQID++
	l := &clientLeg{sess: s, qid: s.nextQID}
	l.cond = sync.NewCond(&l.mu)
	s.legs[l.qid] = l
	s.mu.Unlock()

	if err := s.writeJSON(frameQuery, l.qid, req); err != nil {
		s.fail(err)
		return nil, err
	}
	return l, nil
}

func (s *clientSession) writeFrame(typ byte, qid uint32, payload []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := writeFrame(s.bw, typ, qid, payload); err != nil {
		return err
	}
	return s.bw.Flush()
}

func (s *clientSession) writeJSON(typ byte, qid uint32, v any) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := writeJSONFrame(s.bw, typ, qid, v); err != nil {
		return err
	}
	return s.bw.Flush()
}

func (s *clientSession) readLoop() {
	defer s.wg.Done()
	br := bufio.NewReaderSize(s.conn, 1<<16)
	var buf []byte
	for {
		typ, qid, payload, err := readFrame(br, buf)
		if err != nil {
			s.fail(err)
			return
		}
		buf = payload
		switch typ {
		case frameRows, frameAgg, frameDone, frameError, frameBusy:
			terminal := !isDataFrame(typ)
			s.mu.Lock()
			l := s.legs[qid]
			if l != nil && terminal {
				delete(s.legs, qid)
			}
			s.mu.Unlock()
			if l == nil {
				continue // residue of an abandoned query
			}
			l.deliver(legEvent{typ: typ, payload: append([]byte(nil), payload...)})
		default:
			s.fail(fmt.Errorf("cluster: unexpected server frame %q", typ))
			return
		}
	}
}

// fail marks the session dead, closes the connection and fails every
// in-flight leg. The first error wins; later calls are no-ops beyond
// re-closing the conn.
func (s *clientSession) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	legs := s.legs
	s.legs = map[uint32]*clientLeg{}
	s.closed = true
	s.mu.Unlock()
	s.conn.Close()
	for _, l := range legs {
		l.failLeg(err)
	}
}

// broken reports whether the session can no longer carry queries.
func (s *clientSession) broken() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed || s.err != nil
}

// Close tears the session down; in-flight legs fail with net.ErrClosed.
func (s *clientSession) Close() error {
	s.fail(net.ErrClosed)
	s.wg.Wait()
	return nil
}

// abandon deregisters a leg (so its remaining frames are dropped by
// the demux reader), tells the node to cancel it, and unblocks its
// consumer with reason. Safe to call while another goroutine consumes
// the leg.
func (s *clientSession) abandon(l *clientLeg, reason error) {
	s.mu.Lock()
	_, live := s.legs[l.qid]
	delete(s.legs, l.qid)
	closed := s.closed
	s.mu.Unlock()
	if live && !closed {
		s.writeFrame(frameCancel, l.qid, nil) //nolint:errcheck — best effort to a node we may be giving up on
	}
	l.failLeg(reason)
}

// deliver hands a frame to the leg's consumer.
func (l *clientLeg) deliver(ev legEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	if !isDataFrame(ev.typ) {
		l.done = true
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// failLeg terminates the leg without an event: pending events remain
// consumable, then next returns err.
func (l *clientLeg) failLeg(err error) {
	l.mu.Lock()
	if !l.done {
		l.err = err
		l.done = true
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// next blocks for the leg's next event. After the last event of a
// failed leg it returns the failure; a terminal frame is returned as a
// normal event (io.EOF is only seen if the caller reads past it).
func (l *clientLeg) next() (legEvent, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.events) == 0 {
		if l.done {
			if l.err != nil {
				return legEvent{}, l.err
			}
			return legEvent{}, io.EOF
		}
		l.cond.Wait()
	}
	ev := l.events[0]
	l.events = l.events[1:]
	return ev, nil
}

// consumedRows replenishes the node's flow-control window after the
// consumer has processed n payload bytes: once half the window has
// been eaten a 'W' credit grant is sent.
func (l *clientLeg) consumedRows(n int) {
	l.consumed += int64(n)
	if l.consumed >= defaultWindowBytes/2 {
		credit := l.consumed
		l.consumed = 0
		l.sess.writeFrame(frameWindow, l.qid, windowPayload(uint32(credit))) //nolint:errcheck — a dead session fails the leg through the reader
	}
}

// sessionsPerNode is how many persistent multiplexed sessions a
// coordinator keeps to each node; concurrent legs share them
// round-robin.
const sessionsPerNode = 2

// nodePool maintains the persistent sessions to one node plus its
// health state.
type nodePool struct {
	dial func(ctx context.Context) (net.Conn, error)

	// inflight counts the legs currently dispatched to this node; the
	// coordinator's replica placement prefers the least-loaded live
	// replica of a partition.
	inflight atomic.Int64

	mu       sync.Mutex
	sessions []*clientSession //dvlint:guardedby mu
	next     int              //dvlint:guardedby mu

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

// session returns a live pooled session, dialing one while the pool
// holds fewer than sessionsPerNode; sessions are shared round-robin.
func (p *nodePool) session(ctx context.Context) (*clientSession, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fails > 0 && !p.retryAt.IsZero() && time.Now().Before(p.retryAt) {
		return nil, errUnhealthy{err: p.lastErr}
	}
	// Prune dead sessions; their conns are already closed, the
	// goroutine join happens off the lock.
	live := p.sessions[:0]
	for _, s := range p.sessions {
		if s.broken() {
			go s.Close()
		} else {
			live = append(live, s)
		}
	}
	p.sessions = live
	if len(p.sessions) >= sessionsPerNode {
		s := p.sessions[p.next%len(p.sessions)]
		p.next++
		return s, nil
	}
	// Grow the pool. Dialing happens off the lock, so a concurrent
	// burst may transiently overshoot sessionsPerNode; every session stays
	// tracked and is closed with the pool.
	p.mu.Unlock()
	conn, err := p.dial(ctx)
	p.mu.Lock()
	if err != nil {
		return nil, err
	}
	s := newClientSession(conn)
	p.sessions = append(p.sessions, s)
	return s, nil
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

// close shuts every pooled session down.
func (p *nodePool) close() {
	p.mu.Lock()
	sessions := p.sessions
	p.sessions = nil
	p.mu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
}
