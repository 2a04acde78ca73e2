package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestStageTimeAndAdd(t *testing.T) {
	a := QueryStats{ChunksPlanned: 2, ChunksRead: 1, BytesRead: 10,
		RowsScanned: 5, RowsEmitted: 3, RowsFiltered: 2,
		PlanTime: time.Millisecond, NetTime: 2 * time.Millisecond}
	b := a
	a.Add(b)
	if a.ChunksPlanned != 4 || a.BytesRead != 20 || a.RowsFiltered != 4 {
		t.Errorf("Add counters: %+v", a)
	}
	if a.PlanTime != 2*time.Millisecond || a.NetTime != 4*time.Millisecond {
		t.Errorf("Add times: %+v", a)
	}
	for _, st := range Stages {
		_ = a.StageTime(st) // all stages resolvable
	}
	if a.StageTime(Stage("bogus")) != 0 {
		t.Error("unknown stage has nonzero time")
	}
}

func TestCountersDeterministic(t *testing.T) {
	s := QueryStats{ChunksPlanned: 7, ChunksRead: 7, BytesRead: 123,
		RowsScanned: 40, RowsEmitted: 30, RowsFiltered: 10,
		ExtractTime: 5 * time.Second}
	got := s.Counters()
	if strings.Contains(got, "5s") {
		t.Errorf("Counters leaked a time: %q", got)
	}
	want := "chunks planned: 7\nchunks read: 7\nbytes read: 123\nrows scanned: 40\nrows emitted: 30\nrows filtered: 10"
	if got != want {
		t.Errorf("Counters = %q, want %q", got, want)
	}
	if !strings.Contains(s.String(), "extract: 5s") {
		t.Errorf("String missing stage time: %q", s.String())
	}
}

func TestLogTracerThreshold(t *testing.T) {
	var lines []string
	tr := &LogTracer{Logf: func(f string, a ...any) {
		lines = append(lines, f)
	}, Slow: time.Second}
	tr.StageEnd("SELECT 1", StageExtract, time.Millisecond, nil) // fast: suppressed
	if len(lines) != 0 {
		t.Fatalf("fast stage logged: %v", lines)
	}
	tr.StageEnd("SELECT 1", StageExtract, 2*time.Second, nil) // slow: logged
	tr.StageEnd("SELECT 1", StageNet, time.Millisecond, errors.New("boom"))
	if len(lines) != 2 {
		t.Fatalf("logged %d lines, want 2", len(lines))
	}
}

func TestLogTracerTruncatesQuery(t *testing.T) {
	var got string
	tr := &LogTracer{Logf: func(f string, a ...any) {
		for _, v := range a {
			if s, ok := v.(string); ok && strings.Contains(s, "...") {
				got = s
			}
		}
	}}
	long := "SELECT " + strings.Repeat("X", 300)
	tr.StageEnd(long, StagePlan, time.Second, nil)
	if len(got) == 0 || len(got) > maxLoggedQuery+3 {
		t.Errorf("query not truncated: %d bytes", len(got))
	}
}

func TestContextTracer(t *testing.T) {
	if _, ok := TracerFrom(context.Background()).(NopTracer); !ok {
		t.Error("default tracer is not NopTracer")
	}
	tr := &LogTracer{Logf: func(string, ...any) {}}
	ctx := WithTracer(context.Background(), tr)
	if TracerFrom(ctx) != Tracer(tr) {
		t.Error("WithTracer round-trip failed")
	}
}

func TestBeginEnd(t *testing.T) {
	var evs []ev
	tr := recorder{on: func(e ev) { evs = append(evs, e) }}
	end := Begin(tr, "SELECT 1", StageIndex)
	d := end(nil)
	if d < 0 {
		t.Errorf("duration %v", d)
	}
	if len(evs) != 2 || evs[0].end || !evs[1].end || evs[1].stage != StageIndex {
		t.Errorf("events: %+v", evs)
	}

	var mt MultiTracer = []Tracer{tr, tr}
	evs = nil
	mt.StageStart("q", StagePlan)
	mt.StageEnd("q", StagePlan, time.Second, nil)
	if len(evs) != 4 {
		t.Errorf("MultiTracer fanned out %d events, want 4", len(evs))
	}
}

type ev struct {
	stage Stage
	end   bool
	err   error
}

type recorder struct {
	on func(ev)
}

func (r recorder) StageStart(q string, s Stage) {
	r.on(ev{stage: s})
}

func (r recorder) StageEnd(q string, s Stage, d time.Duration, err error) {
	r.on(ev{stage: s, end: true, err: err})
}

func TestCacheCounters(t *testing.T) {
	s := QueryStats{CacheHits: 8, CacheMisses: 2, FSBytesRead: 100, CacheBytesServed: 900}
	b := s
	s.Add(b)
	if s.CacheHits != 16 || s.CacheMisses != 4 || s.FSBytesRead != 200 || s.CacheBytesServed != 1800 {
		t.Errorf("Add cache counters: %+v", s)
	}
	if got := s.CacheBytesSaved(); got != 1600 {
		t.Errorf("CacheBytesSaved = %d", got)
	}
	neg := QueryStats{FSBytesRead: 500, CacheBytesServed: 100}
	if got := neg.CacheBytesSaved(); got != 0 {
		t.Errorf("CacheBytesSaved clamps at zero, got %d", got)
	}
	// Counters stays byte-stable (golden form) even with cache traffic;
	// String gains the cache line only when the cache was touched.
	if strings.Contains(s.Counters(), "cache") {
		t.Errorf("Counters leaked cache fields: %q", s.Counters())
	}
	if !strings.Contains(s.String(), "cache: 16 hits / 4 misses") {
		t.Errorf("String missing cache line: %q", s.String())
	}
	var cold QueryStats
	if strings.Contains(cold.String(), "cache") {
		t.Errorf("untouched cache rendered: %q", cold.String())
	}
}

func TestAggregateCounters(t *testing.T) {
	s := QueryStats{AggPushedQueries: 2, AggPartialGroups: 9, VectorBatches: 5, AggTime: time.Second}
	b := s
	s.Add(b)
	if s.AggPushedQueries != 4 || s.AggPartialGroups != 18 || s.VectorBatches != 10 {
		t.Errorf("Add aggregate counters: %+v", s)
	}
	if s.StageTime(StageAggregate) != 2*time.Second {
		t.Errorf("StageAggregate time = %v", s.StageTime(StageAggregate))
	}
	// Counters stays byte-stable (golden form) even with aggregate
	// traffic; String gains the agg/vector lines only when pushed-down
	// aggregation or vectorized filtering ran.
	if strings.Contains(s.Counters(), "agg") || strings.Contains(s.Counters(), "vector") {
		t.Errorf("Counters leaked aggregate fields: %q", s.Counters())
	}
	if !strings.Contains(s.String(), "\nagg: 4 pushed / 18 partial groups") {
		t.Errorf("String missing agg line: %q", s.String())
	}
	if !strings.Contains(s.String(), "\nvector: 10 batches") {
		t.Errorf("String missing vector line: %q", s.String())
	}
	if !strings.Contains(s.String(), "aggregate: 2s") {
		t.Errorf("String missing aggregate stage time: %q", s.String())
	}
	var cold QueryStats
	// The per-stage breakdown always prints "aggregate:", so check the
	// conditional lines specifically.
	if strings.Contains(cold.String(), "\nagg: ") || strings.Contains(cold.String(), "\nvector: ") {
		t.Errorf("untouched aggregate counters rendered: %q", cold.String())
	}
}

func TestCacheReporter(t *testing.T) {
	var lines []string
	tr := &LogTracer{Logf: func(f string, a ...any) {
		lines = append(lines, fmt.Sprintf(f, a...))
	}}
	ReportCache(tr, "SELECT 1", 5, 1, 4096)
	if len(lines) != 1 || !strings.Contains(lines[0], "5 hits / 1 misses") {
		t.Fatalf("CacheReport lines: %v", lines)
	}
	// Slow>0 suppresses cache reports like fast stages.
	lines = nil
	tr.Slow = time.Second
	ReportCache(tr, "SELECT 1", 5, 1, 4096)
	if len(lines) != 0 {
		t.Fatalf("suppressed tracer logged: %v", lines)
	}
	// Zero traffic never reports; non-implementors are ignored.
	tr.Slow = 0
	ReportCache(tr, "SELECT 1", 0, 0, 0)
	if len(lines) != 0 {
		t.Fatalf("zero-traffic report logged: %v", lines)
	}
	ReportCache(NopTracer{}, "SELECT 1", 1, 1, 1)

	// MultiTracer forwards to implementing members only.
	lines = nil
	mt := MultiTracer{NopTracer{}, tr}
	ReportCache(mt, "SELECT 2", 3, 0, 64)
	if len(lines) != 1 {
		t.Fatalf("MultiTracer forwarded %d reports, want 1", len(lines))
	}
}

func TestPlanCacheCounters(t *testing.T) {
	s := QueryStats{PlanCacheHits: 3, PlanCacheMisses: 1}
	b := s
	s.Add(b)
	if s.PlanCacheHits != 6 || s.PlanCacheMisses != 2 {
		t.Errorf("Add plan-cache counters: %+v", s)
	}
	// Counters stays byte-stable (golden form) even with plan-cache
	// counts; String gains the plans line only when they are nonzero,
	// which no engine path produces any more.
	if strings.Contains(s.Counters(), "plans") {
		t.Errorf("Counters leaked plan-cache fields: %q", s.Counters())
	}
	if !strings.Contains(s.String(), "plans: 6 hits / 2 misses") {
		t.Errorf("String missing plans line: %q", s.String())
	}
	var cold QueryStats
	if strings.Contains(cold.String(), "plans") {
		t.Errorf("untouched plan cache rendered: %q", cold.String())
	}
}
