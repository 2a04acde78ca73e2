package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"datavirt/internal/core"
	"datavirt/internal/handwritten"
	"datavirt/internal/obs"
	"datavirt/internal/table"
)

// digest is the order-independent fingerprint of a result set: the
// wrapping sum of a word-wise FNV-1a hash of each row, plus the row
// count. Two paths that return the same multiset of rows in any order
// agree on it.
type digest struct {
	sum  uint64
	rows int64
}

func (d *digest) add(row table.Row) {
	h := uint64(14695981039346656037)
	for _, v := range row {
		h = (h ^ (uint64(v.Int) + math.Float64bits(v.Float))) * 1099511628211
	}
	d.sum += h
	d.rows++
}

func (d *digest) emit(row table.Row) error { d.add(row); return nil }

// result is what one executed op produced.
type result struct {
	digest
	stats *obs.QueryStats
}

// drain runs sql through the system's cursor to the last row.
func drain(ctx context.Context, sys *system, sql string) (result, error) {
	rows, err := sys.query(ctx, sql)
	if err != nil {
		return result{}, err
	}
	return drainRows(rows)
}

func drainRows(rows *core.Rows) (result, error) {
	defer rows.Close()
	var res result
	for rows.Next() {
		res.add(rows.Row())
	}
	if err := rows.Err(); err != nil {
		return res, err
	}
	res.stats = rows.Stats()
	return res, nil
}

// oracle computes each distinct query's expected digest by a path that
// shares as little as possible with the measured one: the hand-written
// L0 extractor where it applies, otherwise a private service run
// sequentially through the callback API with the scalar filter, no
// block cache and no sparse pruning.
type oracle struct {
	hand *handwritten.IparsL0
	svc  *core.Service

	mu   sync.Mutex
	memo map[string]digest
}

func newOracle(ds *dataset) (*oracle, error) {
	svc, err := core.Open(ds.desc, ds.root)
	if err != nil {
		return nil, err
	}
	o := &oracle{svc: svc, memo: map[string]digest{}}
	if ds.layout == "L0" {
		o.hand = &handwritten.IparsL0{Root: ds.root, Spec: ds.spec}
	}
	return o, nil
}

func (o *oracle) close() { o.svc.Close() }

func (o *oracle) want(ctx context.Context, q op) (digest, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if d, ok := o.memo[q.sql]; ok {
		return d, nil
	}
	var d digest
	if o.hand != nil && !q.agg {
		if _, err := o.hand.Query(q.sql, d.emit); err != nil {
			return d, err
		}
	} else {
		prep, err := o.svc.PrepareContext(ctx, q.sql)
		if err != nil {
			return d, err
		}
		opt := core.Options{ScalarFilter: true, NoCache: true, NoSparse: true}
		if _, err := prep.RunContext(ctx, opt, d.emit); err != nil {
			return d, err
		}
	}
	o.memo[q.sql] = d
	return d, nil
}

// check reports whether got is the expected result of q.
func (o *oracle) check(ctx context.Context, q op, got digest) (bool, error) {
	want, err := o.want(ctx, q)
	return err == nil && want == got, err
}

// sample is one completed op of a timed round.
type sample struct {
	op  int64
	lat time.Duration
	got digest
	err error
}

// round is one timed section: closed-loop clients, each sending its
// next op only after the previous reply is fully drained.
type round struct {
	samples []sample
	wall    time.Duration
}

// runRound drives clients closed-loop callers for d. Ops are claimed
// from next, so successive rounds continue one deterministic sequence.
func runRound(ctx context.Context, sys *system, w *workload, seed draw, next *atomic.Int64, clients int, d time.Duration) round {
	perClient := make([][]sample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				o := w.opAt(w, seed, i)
				t0 := time.Now()
				res, err := drain(ctx, sys, o.sql)
				perClient[c] = append(perClient[c], sample{op: i, lat: time.Since(t0), got: res.digest, err: err})
			}
		}(c)
	}
	wg.Wait()
	r := round{wall: time.Since(start)}
	for _, s := range perClient {
		r.samples = append(r.samples, s...)
	}
	return r
}

// verify checks every sample of the rounds against the oracle and
// returns how many ops failed: an error, a refusal or a wrong result.
func verify(ctx context.Context, o *oracle, w *workload, seed draw, rounds []round) (failed []int, firstErr error) {
	failed = make([]int, len(rounds))
	for ri, r := range rounds {
		for _, s := range r.samples {
			err := s.err
			if err == nil {
				var ok bool
				q := w.opAt(w, seed, s.op)
				if ok, err = o.check(ctx, q, s.got); err == nil && !ok {
					err = fmt.Errorf("op %d %q: result differs from the reference", s.op, q.sql)
				}
			}
			if err != nil {
				failed[ri]++
				if firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	return failed, firstErr
}

// yardstick is the paper's comparison on the same L0 files: the
// generated extractor through the callback API against the hand-written
// one, both discarding rows.
type yardstick struct {
	ds   *dataset
	svc  *core.Service
	prep *core.Prepared
	hand *handwritten.IparsL0
}

const yardstickSQL = "SELECT * FROM IparsData"

func newYardstick(ctx context.Context, ds *dataset) (*yardstick, error) {
	svc, err := core.Open(ds.desc, ds.root)
	if err != nil {
		return nil, err
	}
	y := &yardstick{ds: ds, svc: svc, hand: &handwritten.IparsL0{Root: ds.root, Spec: ds.spec}}
	if y.prep, err = svc.PrepareContext(ctx, yardstickSQL); err != nil {
		svc.Close()
		return nil, err
	}
	// One untimed pair fills the block cache and the OS page cache.
	if _, _, err := y.pair(ctx); err != nil {
		svc.Close()
		return nil, err
	}
	return y, nil
}

func (y *yardstick) close() { y.svc.Close() }

func discard(table.Row) error { return nil }

// pair times one generated and one hand-written full scan.
func (y *yardstick) pair(ctx context.Context) (generated, hand time.Duration, err error) {
	t0 := time.Now()
	st, err := y.prep.RunContext(ctx, core.Options{}, discard)
	generated = time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	t0 = time.Now()
	n, err := y.hand.Query(yardstickSQL, discard)
	hand = time.Since(t0)
	if err == nil && (n != y.ds.rows || st.RowsEmitted != y.ds.rows) {
		err = fmt.Errorf("yardstick: generated emitted %d rows, hand-written %d, dataset has %d", st.RowsEmitted, n, y.ds.rows)
	}
	return generated, hand, err
}

// ratio alternates n pairs and returns median generated ÷ median hand.
func (y *yardstick) ratio(ctx context.Context, n int) (float64, error) {
	var g, h []time.Duration
	for i := 0; i < n; i++ {
		gd, hd, err := y.pair(ctx)
		if err != nil {
			return 0, err
		}
		g, h = append(g, gd), append(h, hd)
	}
	return median(durations(g, ms)) / median(durations(h, ms)), nil
}
