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
// frame). Slots are node-wide, shared by every connection.
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

// serveConn serves one connection to connection close, one query at a
// time. The loop keeps reading while a query runs, so a hang-up (or
// any read error) cancels the query at once; a pipelined 'Q' waits
// until the previous query's goroutine has finished, and until then the
// running query owns the connection's writer. It returns the first
// protocol-level error, nil on a clean client disconnect.
func (n *Node) serveConn(conn net.Conn) error {
	ctx, cancel := context.WithCancel(n.baseCtx)
	var running sync.WaitGroup
	defer running.Wait()
	defer cancel()
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	var buf []byte
	for {
		typ, qid, payload, err := readFrame(br, buf)
		if err != nil {
			if ctx.Err() != nil || isClosedConn(err) {
				return nil // node shutting down or client hung up
			}
			return err
		}
		buf = payload
		switch typ {
		case frameQuery:
		default:
			return fmt.Errorf("cluster: unexpected client frame %q", typ)
		}
		running.Wait()
		req, err := decodeRequest(payload)
		if err != nil {
			if writeTerminal(bw, frameError, qid, []byte(err.Error())) != nil {
				return nil // the peer is gone
			}
			continue
		}
		running.Add(1)
		go func() {
			defer running.Done()
			if err := n.runQuery(ctx, bw, qid, req); err != nil {
				conn.Close() // the peer is gone; unblock the read loop
			}
		}()
	}
}

// decodeRequest parses a 'Q' payload and checks its protocol version.
func decodeRequest(payload []byte) (Request, error) {
	var req Request
	if err := json.Unmarshal(payload, &req); err != nil {
		return req, fmt.Errorf("bad request: %v", err)
	}
	if req.Version != protocolVersion {
		return req, fmt.Errorf("protocol version %d not supported (want %d)", req.Version, protocolVersion)
	}
	return req, nil
}

// writeTerminal writes a query's last frame and flushes the connection.
func writeTerminal(bw *bufio.Writer, typ byte, qid uint32, payload []byte) error {
	if err := writeFrame(bw, typ, qid, payload); err != nil {
		return err
	}
	return bw.Flush()
}

// runQuery admits, prepares, executes and streams one query, ending
// it with a done trailer, an error frame, or a busy frame. Its error is
// a failed write: the connection is unusable.
func (n *Node) runQuery(ctx context.Context, bw *bufio.Writer, qid uint32, req Request) error {
	if n.Tracer != nil {
		ctx = obs.WithTracer(ctx, n.Tracer)
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	// Admission: acquire an execution slot (or shed). The wait is
	// reported as the query's queue stage and in the trailer's stats.
	endQueue := obs.Begin(obs.TracerFrom(ctx), req.SQL, obs.StageQueue)
	waited, queued, err := n.admission().acquire(ctx)
	endQueue(err)
	if errors.Is(err, ErrOverloaded) {
		return writeTerminal(bw, frameBusy, qid, []byte(err.Error()))
	}
	if err != nil {
		return writeTerminal(bw, frameError, qid, []byte(err.Error()))
	}
	defer n.admission().release()

	trailer, err := n.execute(ctx, bw, qid, req)
	if err != nil {
		return writeTerminal(bw, frameError, qid, []byte(err.Error()))
	}
	trailer.Stats.QueueTime = waited
	if queued {
		trailer.Stats.QueuedQueries = 1
	}
	payload, err := json.Marshal(trailer)
	if err != nil {
		return writeTerminal(bw, frameError, qid, []byte(err.Error()))
	}
	return writeTerminal(bw, frameDone, qid, payload)
}

// execute runs the admitted query, writing row batches straight to the
// connection, and returns the trailer.
func (n *Node) execute(ctx context.Context, bw *bufio.Writer, qid uint32, req Request) (Trailer, error) {
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
		return n.executeAggregate(ctx, bw, qid, req, prep, partition)
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

	// Per-destination batches, each written as one 'R' frame and flushed
	// so the coordinator sees every batch as soon as it is full.
	type batch struct {
		rows int
		buf  []byte
	}
	batches := make([]batch, numDests)
	var enc rowsFrameEncoder
	var sentBytes int64
	flush := func(d int) error {
		b := &batches[d]
		if b.rows == 0 {
			return nil
		}
		sentBytes += int64(8 + len(b.buf))
		if err := enc.writeRowsFrame(bw, qid, uint32(d), uint32(b.rows), b.buf); err != nil {
			return err
		}
		b.rows = 0
		b.buf = b.buf[:0]
		return bw.Flush()
	}

	var rows int64
	stats, err := prep.RunContext(ctx, core.Options{NodeFilter: partition}, func(row table.Row) error {
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
	return Trailer{Stats: stats, Rows: rows, SentBytes: sentBytes}, nil
}

// executeAggregate runs an aggregate query leg: partial aggregates are
// folded directly over extracted blocks (no row materialization) and
// shipped to the coordinator in 'A' frames, each an independently
// mergeable chunk of groups. The coordinator merges every leg's
// partials and finalizes, so this leg never sees the final result.
func (n *Node) executeAggregate(ctx context.Context, bw *bufio.Writer, qid uint32, req Request, prep *core.Prepared, partition string) (Trailer, error) {
	if req.Partition.NumDests > 0 {
		return Trailer{}, fmt.Errorf("cluster: aggregate queries cannot be partitioned")
	}
	state, stats, err := prep.RunAggPartialContext(ctx, core.Options{NodeFilter: partition})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return Trailer{}, cerr
		}
		return Trailer{}, err
	}
	var sentBytes int64
	for _, chunk := range state.EncodeChunks(0) {
		sentBytes += int64(len(chunk))
		if err := writeFrame(bw, frameAgg, qid, chunk); err != nil {
			return Trailer{}, err
		}
	}
	return Trailer{Stats: stats, SentBytes: sentBytes}, nil
}

// isClosedConn reports whether err is the use-of-closed-connection
// error a torn-down listener/conn produces (or a peer hang-up).
func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}
