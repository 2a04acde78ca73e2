package core

import (
	"context"
	"errors"

	"datavirt/internal/extractor"
	"datavirt/internal/obs"
	"datavirt/internal/table"
)

// rowsBuffer is the channel depth, in batches, between the extraction
// goroutine and the consumer. It applies to owned batches (coordinator
// frames, aggregate results), which the producer
// hands over and forgets, so the channel decouples bursty production
// from row-at-a-time iteration: a cursor holds no more than rowsBuffer
// undelivered owned batches. A borrowed batch never queues behind
// another one: its producer waits until the consumer is done with it.
const rowsBuffer = 4

// Rows is a streaming cursor over a query's result, in the spirit of
// database/sql.Rows: extraction runs concurrently, rows reach the cursor
// a block at a time and are pulled from it one at a time, so results of
// any size are consumed in constant memory. The iteration idiom:
//
//	rows, err := svc.QueryContext(ctx, sql)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    use(rows.Row())
//	}
//	if err := rows.Err(); err != nil { ... }
//
// The row Row returns is valid until the next call to Next or Close,
// like bufio.Scanner.Bytes: the cursor hands the producer's block
// buffer out in place, and the producer overwrites it once Next moves
// past the block. A caller that keeps rows copies them with
// table.CopyRows. A Rows is not safe for concurrent use. Abandoning a
// cursor without Close leaks the extraction goroutine until the parent
// context is cancelled; always defer Close.
type Rows struct {
	parent  context.Context // the caller's ctx, to tell its cancellation from Close's
	cancel  context.CancelFunc
	ch      chan rowsBatch
	release chan struct{} // one token per borrowed batch the consumer has moved past
	done    chan struct{} // closed after runErr and stats are written

	cols     []string
	batch    []table.Row // the batch being walked; batch[next:] are still to come
	borrowed bool        // batch belongs to the producer, which waits on release
	next     int
	cur      table.Row
	err      error
	closed   bool

	// Written by the extraction goroutine before done closes.
	runErr error
	stats  obs.QueryStats
}

// rowsBatch is one delivered batch on its way to the consumer.
type rowsBatch struct {
	rows     []table.Row
	borrowed bool
}

// NewRows adapts a push-style runner into a streaming cursor: run is
// started on its own goroutine with a deliver function that hands each
// batch of rows to the cursor, and the QueryStats it returns become the
// cursor's Stats. Delivery follows the extractor.EmitFunc contract. An
// owned batch is queued (blocking only when rowsBuffer batches wait)
// and deliver returns at once. A borrowed batch is handed to the
// consumer in place, not copied: deliver returns only once Next has
// moved past the batch's last row, or the cursor was closed or its
// context cancelled, so the runner may then reuse its rows. A batch
// becomes visible to Next as soon as it is delivered; the cursor never
// waits to fill one. The runner must honour ctx cancellation — Close
// cancels it — and, once deliver has returned an error, return without
// writing to the rows it last delivered. This is the bridge both the
// local service and the cluster coordinator use to present one cursor
// API over push-style execution engines.
func NewRows(ctx context.Context, cols []string, run func(ctx context.Context, deliver extractor.BatchFunc) (obs.QueryStats, error)) *Rows {
	runCtx, cancel := context.WithCancel(ctx)
	r := &Rows{
		parent:  ctx,
		cancel:  cancel,
		ch:      make(chan rowsBatch, rowsBuffer),
		release: make(chan struct{}, 1),
		done:    make(chan struct{}),
		cols:    cols,
	}
	go func() {
		defer close(r.done)
		defer close(r.ch)
		// The goroutine hand-off below is the pull adapter; iter.Pull
		// would do the same job no faster, but it needs Go 1.23 and the
		// module (with the benchmark module that builds against it)
		// stays on go 1.22.
		stats, err := run(runCtx, func(rows []table.Row, owned bool) error {
			if len(rows) == 0 {
				return nil
			}
			if err := runCtx.Err(); err != nil {
				return err // nothing is handed out once the cursor is cancelled
			}
			select {
			case r.ch <- rowsBatch{rows, !owned}:
			case <-runCtx.Done():
				return runCtx.Err()
			}
			if owned {
				return nil
			}
			select {
			case <-r.release:
				return nil
			case <-runCtx.Done():
				return runCtx.Err()
			}
		})
		r.stats = stats
		r.runErr = err
	}()
	return r
}

// QueryContext starts the prepared query and returns a streaming
// cursor over its rows. Extraction proceeds concurrently with
// iteration; Close cancels whatever is still in flight.
func (p *Prepared) QueryContext(ctx context.Context, opt Options) (*Rows, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return NewRows(ctx, p.Cols, func(runCtx context.Context, deliver extractor.BatchFunc) (obs.QueryStats, error) {
		return p.runBatches(runCtx, opt, deliver)
	}), nil
}

// Columns returns the cursor's column names (the SELECT list, *
// expanded).
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row, blocking until one is available or
// the query finishes. It returns false at the end of the result set,
// on error (see Err), or after Close. Moving past the last row of a
// borrowed batch hands the batch back to its producer.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if r.next == len(r.batch) {
		if r.borrowed {
			r.borrowed = false
			r.release <- struct{}{} // never blocks: one borrowed batch is out at a time
		}
		b, ok := <-r.ch
		if !ok {
			<-r.done // runErr and stats are now visible
			r.err = r.terminalErr()
			r.batch, r.next, r.cur = nil, 0, nil
			return false
		}
		r.batch, r.borrowed, r.next = b.rows, b.borrowed, 0
	}
	r.cur = r.batch[r.next]
	r.next++
	return true
}

// Row returns the current row. It is valid until the next call to Next
// or Close, which may let the producer overwrite it; copy it with
// table.CopyRows to keep it.
func (r *Rows) Row() table.Row { return r.cur }

// Err returns the error that terminated iteration, if any. It is nil
// while rows remain, after a complete iteration, and after a plain
// Close; it reports the context's error when the parent context was
// cancelled or timed out.
func (r *Rows) Err() error { return r.err }

// Close cancels any in-flight extraction, releases the cursor's
// resources and returns Err. Close is idempotent and safe to call at
// any point of the iteration.
func (r *Rows) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	r.cancel()
	r.batch, r.borrowed, r.next, r.cur = nil, false, 0, nil
	for range r.ch { // unblock the producer and drain
	}
	<-r.done
	if r.err == nil {
		r.err = r.terminalErr()
	}
	return r.err
}

// terminalErr maps the run's error to the cursor error: cancellation
// triggered by our own Close is not an iteration error (mirroring
// database/sql), but a parent-context cancellation is.
func (r *Rows) terminalErr() error {
	err := r.runErr
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) && r.parent.Err() == nil {
		return nil
	}
	return err
}

// Stats returns the query's observability record: chunk, byte and row
// counters plus per-stage wall times. It is available once the query
// has finished — after Next returned false or Close was called — and
// returns nil while extraction is still running.
func (r *Rows) Stats() *obs.QueryStats {
	select {
	case <-r.done:
		s := r.stats
		return &s
	default:
		return nil
	}
}
