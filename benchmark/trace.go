package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"datavirt/internal/obs"
	"datavirt/internal/sqlparser"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change). Times are
// nanoseconds since the trace began; spans of one op share its id.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0 for an op's root span
	Op     int64            `json:"op"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(parent int, op int64, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int, counts map[string]int64) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Counts = counts
}

// selfTimes returns, per span name, the summed self time — a span's
// duration minus the part its children cover — and the summed duration
// of the root spans. It fails if a child leaves its parent's interval.
func selfTimes(spans []span) (self map[string]int64, root int64, err error) {
	children := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.End < s.Start {
			return nil, 0, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			root += s.End - s.Start
			continue
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return nil, 0, fmt.Errorf("span %d (%s) leaves its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		children[s.Parent] += s.End - s.Start
	}
	self = map[string]int64{}
	for _, s := range spans {
		d := s.End - s.Start - children[s.ID]
		if d < 0 {
			return nil, 0, fmt.Errorf("span %d (%s) has negative self time: its children overlap", s.ID, s.Name)
		}
		self[s.Name] += d
	}
	return self, root, nil
}

// statCounts are the Rows.Stats() counters a run span carries.
func statCounts(st *obs.QueryStats) map[string]int64 {
	if st == nil {
		return nil
	}
	return map[string]int64{
		"chunks_planned":    int64(st.ChunksPlanned),
		"bytes_read":        st.BytesRead,
		"rows_scanned":      st.RowsScanned,
		"rows_emitted":      st.RowsEmitted,
		"cache_hits":        st.CacheHits,
		"cache_misses":      st.CacheMisses,
		"fs_bytes_read":     st.FSBytesRead,
		"plan_cache_hits":   st.PlanCacheHits,
		"plan_cache_misses": st.PlanCacheMisses,
		"blocks_skipped":    st.BlocksSkipped,
		"shed_queries":      st.ShedQueries,
		"leg_redispatches":  st.LegRedispatches,
		"net_ns":            st.NetTime.Nanoseconds(),
		"queue_ns":          st.QueueTime.Nanoseconds(),
	}
}

// tracedOp runs one op with a span around each call into a layer:
// op → sqlparser.parse → core.prepare → core.run (cursor open to last
// row) → verify, or op → coord.query → verify on the cluster, whose
// coordinator parses and prepares behind one call. The returned latency
// stops before verify, so it is comparable with an untraced op.
func tracedOp(ctx context.Context, tr *tracer, sys *system, o *oracle, q op, i int64) (lat time.Duration, st *obs.QueryStats, err error) {
	t0 := time.Now()
	root := tr.start(0, i, "op")
	defer func() { tr.end(root, nil) }()
	var res result
	if sys.coord != nil {
		id := tr.start(root, i, "coord.query")
		res, err = drain(ctx, sys, q.sql)
		tr.end(id, statCounts(res.stats))
	} else {
		id := tr.start(root, i, "sqlparser.parse")
		parsed, perr := sqlparser.Parse(q.sql)
		tr.end(id, nil)
		if perr != nil {
			return 0, nil, perr
		}
		id = tr.start(root, i, "core.prepare")
		prep, perr := sys.svc.PrepareParsedContext(ctx, parsed)
		tr.end(id, nil)
		if perr != nil {
			return 0, nil, perr
		}
		id = tr.start(root, i, "core.run")
		rows, rerr := prep.QueryContext(ctx, sys.opt)
		if rerr == nil {
			res, rerr = drainRows(rows)
		}
		err = rerr
		tr.end(id, statCounts(res.stats))
	}
	lat = time.Since(t0)
	if err != nil {
		return lat, nil, err
	}
	id := tr.start(root, i, "verify")
	ok, err := o.check(ctx, q, res.digest)
	tr.end(id, nil)
	if err == nil && !ok {
		err = fmt.Errorf("op %d %q: result differs from the reference", i, q.sql)
	}
	return lat, res.stats, err
}

// shares turns summed self times into shares of the root spans' time,
// largest first.
type share struct {
	Span  string  `json:"span"`
	Share float64 `json:"share_of_op_time"`
}

func shares(self map[string]int64, root int64) []share {
	out := make([]share, 0, len(self))
	for name, ns := range self {
		out = append(out, share{name, float64(ns) / float64(root)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Span < out[j].Span
	})
	return out
}
