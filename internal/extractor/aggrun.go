package extractor

import (
	"context"
	"sync"
	"sync/atomic"

	"datavirt/internal/afc"
	"datavirt/internal/obs"
	"datavirt/internal/query"
)

// RunAggregateContext is the extractor's one aggregate entry: it
// extracts the AFCs — sequentially, or with parallel set through a
// bounded worker pool — folding every row that survives the residual
// predicate into partial aggregates for the plan; no rows are
// materialized or emitted. Parallel workers each fold into a private
// AggState and the states merge at the end; aggregation is exact and
// commutative (see internal/query), so the result is identical to the
// sequential run regardless of AFC scheduling. The returned state holds
// un-finalized partials; the caller finalizes locally or merges states
// from several legs first. The plan must be bound against the same
// working layout as opt.Cols. Cancellation is as on RunBatchesContext.
func RunAggregateContext(ctx context.Context, afcs []afc.AFC, resolver Resolver, opt Options, parallel bool, plan *query.AggPlan) (*query.AggState, obs.QueryStats, error) {
	workers := runWorkers(opt, parallel, len(afcs))
	src, srcDone := runSource(opt)
	defer srcDone()

	if workers <= 1 {
		var stats obs.QueryStats
		state := query.NewAggState(plan)
		pool := newSegPool(src, resolver)
		defer pool.release()
		bb := &blockBuf{}
		for i := range afcs {
			if err := extractOne(ctx, &afcs[i], pool, opt, bb, &stats, state, nil); err != nil {
				return state, stats, err
			}
		}
		stats.AggPushedQueries = 1
		stats.AggPartialGroups = int64(state.Groups())
		return state, stats, nil
	}

	// Slot w is written by worker w alone and read after wg.Wait.
	states := make([]*query.AggState, workers)
	workerStats := make([]obs.QueryStats, workers)
	workerErrs := make([]error, workers)
	// Workers claim AFCs off a shared counter; the first to fail moves
	// it past the end, so the rest stop at their next claim.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bb := &blockBuf{}
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
		}(w)
	}
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
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return state, stats, firstErr
	}
	stats.AggPushedQueries = 1
	stats.AggPartialGroups = int64(state.Groups())
	return state, stats, nil
}
