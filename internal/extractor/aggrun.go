package extractor

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"datavirt/internal/afc"
	"datavirt/internal/obs"
	"datavirt/internal/query"
)

// RunAggregateContext is the extractor's one aggregate entry: it
// extracts the AFCs through a bounded worker pool, folding every row
// that survives the residual predicate into partial aggregates for the
// plan; no rows are materialized or emitted. Each worker folds into a
// private AggState and the states merge at the end; aggregation is
// exact and commutative (see internal/query), so the result is
// bit-identical for every worker count and AFC schedule. The returned
// state holds un-finalized partials; the caller finalizes locally or
// merges states from several legs first. The plan must be bound
// against the same working layout as opt.Cols. The record holds
// RunBatchesContext's counters summed across workers, so filter and
// aggregate times can exceed the run's wall time. Cancelling ctx stops
// every worker between block reads and returns the context's error;
// all workers have exited by the time the call returns.
func RunAggregateContext(ctx context.Context, afcs []afc.AFC, resolver Resolver, opt Options, plan *query.AggPlan) (*query.AggState, obs.QueryStats, error) {
	workers := runWorkers(opt, len(afcs))
	src, srcDone := runSource(opt)
	defer srcDone()

	// Slot w is written by worker w alone and read after the pool ends.
	states := make([]*query.AggState, workers)
	workerStats := make([]obs.QueryStats, workers)
	workerErrs := make([]error, workers)
	// Workers claim AFCs off a shared counter; the first to fail moves
	// it past the end, so the rest stop at their next claim.
	var next atomic.Int64
	fold := func(w int) {
		bb := blockBufs.Get().(*blockBuf)
		defer blockBufs.Put(bb)
		pool := newSegPool(src, resolver)
		defer pool.release()
		states[w] = query.NewAggState(plan)
		for i := next.Add(1) - 1; i < int64(len(afcs)); i = next.Add(1) - 1 {
			if err := extractOne(ctx, &afcs[i], pool, opt, bb, &workerStats[w], states[w], nil); err != nil {
				workerErrs[w] = err
				next.Store(int64(len(afcs)))
				return
			}
		}
	}
	// Worker 0 runs on the calling goroutine: a one-worker pool starts
	// no goroutine at all.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fold(w)
		}(w)
	}
	fold(0)
	wg.Wait()

	state := states[0]
	var stats obs.QueryStats
	var firstErr error
	for w := range states {
		stats.Add(workerStats[w])
		if w > 0 {
			state.Merge(states[w])
		}
		if firstErr == nil {
			firstErr = workerErrs[w]
		}
	}
	if firstErr != nil {
		return state, stats, firstErr
	}
	stats.AggPushedQueries = 1
	stats.AggPartialGroups = int64(state.Groups())
	return state, stats, nil
}

// runWorkers sizes one aggregate run's pool: opt.Workers, or
// GOMAXPROCS capped at 8 when unset, and at most one per AFC (but at
// least one, which an empty plan still needs for its state).
func runWorkers(opt Options, afcs int) int {
	workers := opt.Workers
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), 8)
	}
	return max(1, min(workers, afcs))
}
