package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"datavirt/internal/core"
	"datavirt/internal/obs"
	"datavirt/internal/storm"
	"datavirt/internal/table"
)

// admission is the node's concurrency gate: at most max queries run at
// once, at most maxQueue wait in FIFO order for a slot, and arrivals
// beyond that are shed immediately (the caller answers with a busy
// frame). Slots are node-wide, shared by every session.
type admission struct {
	mu      sync.Mutex
	max     int
	maxQ    int
	running int             //dvlint:guardedby mu
	queue   []chan struct{} //dvlint:guardedby mu (FIFO waiters, signalled by close)

	queued int64 //dvlint:guardedby mu (lifetime: queries that waited)
	shed   int64 //dvlint:guardedby mu (lifetime: queries rejected)
}

// acquire blocks until an execution slot is free, the queue overflows
// (ErrOverloaded), or ctx is cancelled. It reports whether and how long
// the query waited.
func (a *admission) acquire(ctx context.Context) (waited time.Duration, queued bool, err error) {
	a.mu.Lock()
	if a.running < a.max {
		a.running++
		a.mu.Unlock()
		return 0, false, nil
	}
	if len(a.queue) >= a.maxQ {
		a.shed++
		a.mu.Unlock()
		return 0, false, ErrOverloaded
	}
	slot := make(chan struct{})
	a.queue = append(a.queue, slot)
	a.queued++
	a.mu.Unlock()

	start := time.Now()
	select {
	case <-slot:
		return time.Since(start), true, nil
	case <-ctx.Done():
		a.mu.Lock()
		inQueue := false
		for i, s := range a.queue {
			if s == slot {
				a.queue = append(a.queue[:i], a.queue[i+1:]...)
				inQueue = true
				break
			}
		}
		a.mu.Unlock()
		if !inQueue {
			// The slot was granted while we were giving up; hand it on.
			a.release()
		}
		return time.Since(start), true, ctx.Err()
	}
}

// release frees a slot, promoting the longest-waiting queued query.
func (a *admission) release() {
	a.mu.Lock()
	if len(a.queue) > 0 {
		slot := a.queue[0]
		a.queue = a.queue[1:]
		close(slot) // slot ownership transfers; running stays
	} else {
		a.running--
	}
	a.mu.Unlock()
}

// counters snapshots the lifetime queued/shed counts.
func (a *admission) counters() (queued, shed int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued, a.shed
}

// outItem is one frame queued for a session's writer: a row batch
// (frameRows, subject to flow control) or a terminal frame.
type outItem struct {
	typ     byte
	payload []byte
}

// outStream is the per-query send state on a node session. The
// session's writer goroutine drains streams with a fair policy: among
// streams with a sendable head item it picks the one with the smallest
// virtual time (result bytes sent so far), so a heavy scan cannot
// starve point queries sharing the connection.
type outStream struct {
	qid     uint32
	window  int64     //dvlint:guardedby nodeSession.mu (remaining flow-control credit, bytes)
	pending []outItem //dvlint:guardedby nodeSession.mu
	bytes   int       //dvlint:guardedby nodeSession.mu (payload bytes in pending; backpressures the extractor)
	vtime   int64     //dvlint:guardedby nodeSession.mu (result payload bytes sent)
	closed  bool      //dvlint:guardedby nodeSession.mu (terminal frame queued; drop further enqueues)
	// aborted marks a cancelled query: buffered row frames are
	// discarded (the client dropped the stream, and they could starve
	// the terminal frame of window credit) and the emitter is unblocked.
	aborted bool //dvlint:guardedby nodeSession.mu
	cancel  context.CancelFunc
}

// perStreamBuffer bounds how far a query's extraction may run ahead of
// its wire transmission before the emitting goroutine blocks.
const perStreamBuffer = 1 << 20

// nodeSession serves one multiplexed connection on a node: a reader
// loop (the caller) dispatches query/cancel/window frames, one
// goroutine per admitted query extracts rows, and a single writer
// goroutine owns the outbound half of the connection, scheduling row
// batches across queries fairly and within each query in order.
type nodeSession struct {
	node *Node
	conn net.Conn
	bw   *bufio.Writer

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	streams map[uint32]*outStream //dvlint:guardedby mu
	closed  bool                  //dvlint:guardedby mu
	wg      sync.WaitGroup
}

func newNodeSession(n *Node, conn net.Conn) *nodeSession {
	ctx, cancel := context.WithCancel(n.baseCtx)
	s := &nodeSession{
		node:    n,
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 1<<16),
		ctx:     ctx,
		cancel:  cancel,
		streams: map[uint32]*outStream{},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// serve runs the session to connection close. It returns the first
// protocol-level error, nil on a clean client disconnect.
func (s *nodeSession) serve() error {
	s.wg.Add(1)
	go s.writeLoop()
	err := s.readLoop()
	// Tear down: stop queries, wake the writer, join everything.
	s.cancel()
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *nodeSession) readLoop() error {
	br := bufio.NewReaderSize(s.conn, 1<<16)
	var buf []byte
	for {
		typ, qid, payload, err := readFrame(br, buf)
		if err != nil {
			if s.ctx.Err() != nil || isClosedConn(err) {
				return nil // node shutting down or client hung up
			}
			return err
		}
		buf = payload
		switch typ {
		case frameQuery:
			var req Request
			if err := json.Unmarshal(payload, &req); err != nil {
				s.finishStream(qid, frameError, []byte(fmt.Sprintf("bad request: %v", err)))
				continue
			}
			if req.Version != protocolVersion {
				s.finishStream(qid, frameError, []byte(fmt.Sprintf("protocol version %d not supported (want %d)", req.Version, protocolVersion)))
				continue
			}
			s.startQuery(qid, req)
		case frameCancel:
			s.mu.Lock()
			st := s.streams[qid]
			s.mu.Unlock()
			if st != nil {
				if st.cancel != nil {
					st.cancel()
				}
				s.abortStream(st)
			}
		case frameWindow:
			credit, err := parseWindow(payload)
			if err != nil {
				return err
			}
			s.mu.Lock()
			if st := s.streams[qid]; st != nil {
				st.window += int64(credit)
				s.cond.Broadcast()
			}
			s.mu.Unlock()
		default:
			return fmt.Errorf("cluster: unexpected client frame %q", typ)
		}
	}
}

// startQuery registers the stream and launches the query goroutine.
func (s *nodeSession) startQuery(qid uint32, req Request) {
	qctx, qcancel := context.WithCancel(s.ctx)
	st := &outStream{qid: qid, window: defaultWindowBytes, cancel: qcancel}
	s.mu.Lock()
	if _, dup := s.streams[qid]; dup || s.closed {
		s.mu.Unlock()
		qcancel()
		if dup {
			s.finishStream(qid, frameError, []byte(fmt.Sprintf("duplicate query id %d", qid)))
		}
		return
	}
	s.streams[qid] = st
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer qcancel()
		s.runQuery(qctx, st, req)
	}()
}

// enqueue appends a frame to the stream, blocking while the stream's
// buffered bytes exceed perStreamBuffer. It returns false once the
// stream or session is closed (the emitter should stop).
func (s *nodeSession) enqueue(st *outStream, item outItem) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for st.bytes >= perStreamBuffer && !st.closed && !st.aborted && !s.closed && s.ctx.Err() == nil {
		s.cond.Wait()
	}
	if st.closed || st.aborted || s.closed || s.ctx.Err() != nil {
		return false
	}
	st.pending = append(st.pending, item)
	st.bytes += len(item.payload)
	if !isDataFrame(item.typ) {
		st.closed = true
	}
	s.cond.Broadcast()
	return true
}

// finishStream queues a terminal frame for qid, creating a transient
// stream when none is registered (pre-admission errors).
func (s *nodeSession) finishStream(qid uint32, typ byte, payload []byte) {
	s.mu.Lock()
	st := s.streams[qid]
	if st == nil {
		st = &outStream{qid: qid}
		if s.closed {
			s.mu.Unlock()
			return
		}
		s.streams[qid] = st
	}
	if st.closed {
		s.mu.Unlock()
		return
	}
	if st.aborted {
		// The client abandoned the query; drop buffered rows so the
		// terminal frame (which needs no window credit) goes right out.
		st.pending = st.pending[:0]
		st.bytes = 0
	}
	st.pending = append(st.pending, outItem{typ: typ, payload: payload})
	st.bytes += len(payload)
	st.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// abortStream discards a cancelled query's buffered row frames
// (keeping any terminal frame) and unblocks its emitter.
func (s *nodeSession) abortStream(st *outStream) {
	s.mu.Lock()
	st.aborted = true
	kept := st.pending[:0]
	bytes := 0
	for _, it := range st.pending {
		if !isDataFrame(it.typ) {
			kept = append(kept, it)
			bytes += len(it.payload)
		}
	}
	st.pending = kept
	st.bytes = bytes
	s.cond.Broadcast()
	s.mu.Unlock()
}

// pickStream chooses the next sendable stream under fair queuing; nil
// when nothing is ready. Callers hold s.mu.
func (s *nodeSession) pickStream() *outStream {
	var best *outStream
	for _, st := range s.streams {
		if len(st.pending) == 0 {
			continue
		}
		// Data frames need flow-control credit; terminal frames always go.
		if isDataFrame(st.pending[0].typ) && st.window <= 0 {
			continue
		}
		if best == nil || st.vtime < best.vtime {
			best = st
		}
	}
	return best
}

// popFrame dequeues st's head frame and charges it: a data frame spends
// flow-control credit and advances the stream's virtual time, and the
// stream is dropped once its terminal frame is out. Callers hold s.mu.
func (s *nodeSession) popFrame(st *outStream) (item outItem, terminal bool) {
	item = st.pending[0]
	st.pending = st.pending[1:]
	st.bytes -= len(item.payload)
	if isDataFrame(item.typ) {
		st.window -= int64(len(item.payload))
		st.vtime += int64(len(item.payload))
	}
	terminal = st.closed && len(st.pending) == 0
	if terminal {
		delete(s.streams, st.qid)
	}
	return item, terminal
}

func (s *nodeSession) writeLoop() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var st *outStream
		for {
			st = s.pickStream()
			if st != nil || s.closed {
				break
			}
			// Flush buffered frames before going idle.
			s.mu.Unlock()
			if err := s.bw.Flush(); err != nil {
				s.failWriter(err)
				return
			}
			s.mu.Lock()
			if st = s.pickStream(); st != nil || s.closed {
				break
			}
			s.cond.Wait()
		}
		if st == nil { // closed and nothing ready
			s.mu.Unlock()
			s.bw.Flush() //nolint:errcheck — best effort on teardown
			return
		}
		item, terminal := s.popFrame(st)
		s.cond.Broadcast() // unblock emitters waiting on buffer space
		s.mu.Unlock()

		if err := writeFrame(s.bw, item.typ, st.qid, item.payload); err != nil {
			s.failWriter(err)
			return
		}
		if terminal {
			if err := s.bw.Flush(); err != nil {
				s.failWriter(err)
				return
			}
		}
	}
}

// failWriter tears the session down after a write error: the peer is
// gone, so in-flight queries are cancelled rather than completed.
func (s *nodeSession) failWriter(err error) {
	if s.ctx.Err() == nil && !isClosedConn(err) {
		s.node.Logf("cluster node %s: write: %v", s.node.name, err)
	}
	s.cancel()
	s.conn.Close() // unblocks the reader
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// runQuery admits, prepares, executes and streams one query, ending
// the stream with a done trailer, an error frame, or a busy frame.
func (s *nodeSession) runQuery(ctx context.Context, st *outStream, req Request) {
	n := s.node
	if n.Tracer != nil {
		ctx = obs.WithTracer(ctx, n.Tracer)
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	// Admission: acquire an execution slot (or shed). The wait is
	// reported as the query's queue stage and in the trailer.
	endQueue := obs.Begin(obs.TracerFrom(ctx), req.SQL, obs.StageQueue)
	waited, queued, err := n.admission().acquire(ctx)
	endQueue(err)
	if err != nil {
		if err == ErrOverloaded {
			s.finishStream(st.qid, frameBusy, []byte(err.Error()))
		} else {
			s.finishStream(st.qid, frameError, []byte(err.Error()))
		}
		return
	}
	defer n.admission().release()

	trailer, err := s.execute(ctx, st, req)
	if err != nil {
		s.finishStream(st.qid, frameError, []byte(err.Error()))
		return
	}
	trailer.QueueNS = waited.Nanoseconds()
	if queued {
		trailer.Queued = 1
	}
	payload, err := json.Marshal(trailer)
	if err != nil {
		s.finishStream(st.qid, frameError, []byte(err.Error()))
		return
	}
	s.finishStream(st.qid, frameDone, payload)
}

// execute runs the admitted query, streaming row batches through the
// session scheduler, and returns the trailer.
func (s *nodeSession) execute(ctx context.Context, st *outStream, req Request) (Trailer, error) {
	n := s.node
	// Every request plans afresh: AFC generation over the descriptor
	// compiled at Open is cheap enough that a repeated query pays the
	// same small prepare as a new one.
	prep, err := n.svc.PrepareContext(ctx, req.SQL)
	if err != nil {
		return Trailer{}, err
	}
	partition, err := n.partitionFor(req)
	if err != nil {
		return Trailer{}, err
	}
	if prep.Agg != nil {
		return s.executeAggregate(ctx, st, req, prep, partition)
	}
	codec := table.NewCodec(prep.OutSchema)

	// Partition generation at the server: each outgoing row is tagged
	// with its destination processor.
	numDests := req.Partition.NumDests
	var part storm.Partitioner
	if numDests > 0 {
		part, err = storm.NewPartitioner(req.Partition, func(name string) (int, bool) {
			i := prep.OutSchema.Index(name)
			return i, i >= 0
		})
		if err != nil {
			return Trailer{}, err
		}
	} else {
		numDests = 1
	}

	// Per-destination batches, flushed through the scheduler as encoded
	// 'R' payloads (the scheduler owns frame ordering across queries).
	type batch struct {
		rows int
		buf  []byte
	}
	batches := make([]batch, numDests)
	var sentBytes int64
	flush := func(d int) error {
		b := &batches[d]
		if b.rows == 0 {
			return nil
		}
		payload := encodeRowsBody(uint32(d), uint32(b.rows), b.buf)
		sentBytes += int64(len(payload))
		if !s.enqueue(st, outItem{typ: frameRows, payload: payload}) {
			return context.Canceled // stream or session closed under us
		}
		b.rows = 0
		b.buf = b.buf[:0]
		return nil
	}

	var rows int64
	stats, err := prep.RunContext(ctx, core.Options{
		NodeFilter: partition,
		Parallel:   req.Parallel,
	}, func(row table.Row) error {
		d := 0
		if part != nil {
			d = part.Dest(row)
			if d < 0 || d >= numDests {
				return fmt.Errorf("partitioner produced destination %d of %d", d, numDests)
			}
		}
		b := &batches[d]
		var err error
		b.buf, err = codec.Append(b.buf, row)
		if err != nil {
			return err
		}
		b.rows++
		rows++
		if b.rows >= batchRows {
			return flush(d)
		}
		return nil
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return Trailer{}, cerr
		}
		return Trailer{}, err
	}
	for d := range batches {
		if err := flush(d); err != nil {
			return Trailer{}, err
		}
	}
	return Trailer{Stats: stats, Rows: rows, ExtractNS: stats.ExtractTime.Nanoseconds(), SentBytes: sentBytes}, nil
}

// executeAggregate runs an aggregate query leg: partial aggregates are
// folded directly over extracted blocks (no row materialization) and
// shipped to the coordinator in 'A' frames, each an independently
// mergeable chunk of groups. The coordinator merges every leg's
// partials and finalizes, so this leg never sees the final result.
func (s *nodeSession) executeAggregate(ctx context.Context, st *outStream, req Request, prep *core.Prepared, partition string) (Trailer, error) {
	if req.Partition.NumDests > 0 {
		return Trailer{}, fmt.Errorf("cluster: aggregate queries cannot be partitioned")
	}
	state, stats, err := prep.RunAggPartialContext(ctx, core.Options{
		NodeFilter: partition,
		Parallel:   req.Parallel,
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return Trailer{}, cerr
		}
		return Trailer{}, err
	}
	var sentBytes int64
	for _, chunk := range state.EncodeChunks(0) {
		sentBytes += int64(len(chunk))
		if !s.enqueue(st, outItem{typ: frameAgg, payload: chunk}) {
			return Trailer{}, context.Canceled // stream or session closed under us
		}
	}
	return Trailer{Stats: stats, ExtractNS: stats.ExtractTime.Nanoseconds(), SentBytes: sentBytes}, nil
}

// isClosedConn reports whether err is the use-of-closed-connection
// error a torn-down listener/conn produces (or a peer hang-up).
func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}
