// Package obs provides per-query observability for the datavirt
// engine: QueryStats aggregates what a query cost (chunks, bytes,
// rows, per-stage wall times) and Tracer is a pluggable hook that
// observes stage boundaries as they happen (span start/end, slow-query
// logging).
//
// The stages map onto the paper's STORM middleware services (§2.3):
// plan is the query service, index the indexing service, extract the
// data source service, filter the filtering service, and net the data
// mover transferring tuples between nodes. A Tracer therefore sees the
// same per-service cost breakdown the paper reports for its 1–16 node
// experiments.
package obs

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"
)

// Stage names one phase of query execution.
type Stage string

const (
	// StagePlan covers SQL parsing, validation and predicate compilation.
	StagePlan Stage = "plan"
	// StageIndex covers aligned-file-chunk generation (chunk-index
	// lookups included); every prepare runs it. Range extraction
	// belongs to StagePlan.
	StageIndex Stage = "index"
	// StageQueue covers the wait in a node's admission queue before a
	// query is granted an execution slot; it is zero when the node is
	// unloaded and for purely local execution.
	StageQueue Stage = "queue"
	// StageExtract covers chunk reads and row assembly.
	StageExtract Stage = "extract"
	// StageFilter covers residual predicate evaluation and row delivery
	// (accumulated across workers, so it can exceed extract wall time).
	StageFilter Stage = "filter"
	// StageAggregate covers folding filtered rows into partial
	// aggregates (pushed-down GROUP BY); it is zero for row queries.
	StageAggregate Stage = "aggregate"
	// StageNet covers cluster dials, request writes and tuple-stream
	// reads on the coordinator.
	StageNet Stage = "net"
)

// Stages lists all stages in execution order.
var Stages = []Stage{StagePlan, StageIndex, StageQueue, StageExtract, StageFilter, StageAggregate, StageNet}

// QueryStats aggregates the measured cost of one query execution. It
// is the engine's one cost record: the extractor counts into it, core
// completes it with the plan-side fields, a cluster node ships it in
// its trailer, and the coordinator sums the legs' records with Add.
type QueryStats struct {
	// ChunksPlanned counts the aligned file chunks the plan selected
	// after index pruning.
	ChunksPlanned int
	// ChunksRead counts the chunks actually extracted (after node
	// filtering they can differ from ChunksPlanned).
	ChunksRead int
	// BytesRead is the payload bytes read from data files.
	BytesRead int64
	// RowsScanned is the rows materialized from chunks.
	RowsScanned int64
	// RowsEmitted is the rows that survived the residual predicate.
	RowsEmitted int64
	// RowsFiltered is the rows scanned but rejected by the predicate.
	RowsFiltered int64

	// CacheHits counts block-cache hits during extraction; CacheMisses
	// counts the blocks loaded from the filesystem on demand.
	CacheHits   int64
	CacheMisses int64
	// FSBytesRead is the bytes physically read from data files; on a
	// warm cache it drops toward zero while BytesRead (the analytic
	// payload size) stays constant.
	FSBytesRead int64
	// CacheBytesServed is the bytes copied out of cached blocks.
	CacheBytesServed int64

	// PlanCacheHits and PlanCacheMisses are always zero: there is no
	// plan cache, every prepare generates its AFC list. The fields stay
	// because the repository's benchmark reads them.
	// Pinned by benchmark/trace.go and benchmark/layers.go (plan_hit_ratio).
	PlanCacheHits   int64
	PlanCacheMisses int64

	// BlocksSkipped counts extraction blocks a sparse sidecar proved
	// row-free and the extractor never read. SparseIndexHits and
	// SparseIndexMisses count per-chunk sidecar lookups for files with
	// constrained attributes: a miss means that file fell back to a full
	// scan. All stay zero when no sidecars exist or the query has no
	// range constraints.
	BlocksSkipped     int64
	SparseIndexHits   int64
	SparseIndexMisses int64

	// QueuedQueries counts executions (node legs, under the cluster)
	// that waited in an admission queue before being granted a slot;
	// ShedQueries counts legs a loaded node rejected with a busy frame
	// (each shed attempt counts, including ones that later succeeded on
	// retry). Both stay zero for purely local execution.
	QueuedQueries int64
	ShedQueries   int64

	// LegRedispatches counts cluster legs the coordinator dispatched
	// more than once (any reason — overload, failover, stall);
	// ReplicaFailovers counts re-dispatches that moved a leg to a
	// different replica of its partition after the serving node failed,
	// stalled, or shed while a standby was free; ReplicaRetries counts
	// same-node overload retries. All stay zero for purely local
	// execution and for clusters that never shed or fail.
	LegRedispatches  int64
	ReplicaFailovers int64
	ReplicaRetries   int64

	// AggPushedQueries counts executions (node legs, under the cluster)
	// that evaluated a pushed-down aggregate over extracted blocks
	// instead of materializing rows; AggPartialGroups sums the partial
	// groups those executions produced before the coordinator merge.
	// VectorBatches counts the column-vector blocks the extractor
	// filtered with the vectorized (batch) predicate path. All stay zero
	// for per-row row queries.
	AggPushedQueries int64
	AggPartialGroups int64
	VectorBatches    int64

	// PlanTime is the wall time of StagePlan; likewise below. QueueTime
	// sums admission-queue waits over node legs (StageQueue).
	PlanTime    time.Duration
	IndexTime   time.Duration
	QueueTime   time.Duration
	ExtractTime time.Duration
	FilterTime  time.Duration
	AggTime     time.Duration
	NetTime     time.Duration
}

// StageTime returns the wall time recorded for one stage.
func (s *QueryStats) StageTime(st Stage) time.Duration {
	switch st {
	case StagePlan:
		return s.PlanTime
	case StageIndex:
		return s.IndexTime
	case StageQueue:
		return s.QueueTime
	case StageExtract:
		return s.ExtractTime
	case StageFilter:
		return s.FilterTime
	case StageAggregate:
		return s.AggTime
	case StageNet:
		return s.NetTime
	}
	return 0
}

// Add merges another execution's stats into s: every field sums,
// stage times included. The statssync analyzer checks that it names
// every field, so a new counter cannot be dropped from the merge.
func (s *QueryStats) Add(o QueryStats) {
	s.ChunksPlanned += o.ChunksPlanned
	s.ChunksRead += o.ChunksRead
	s.BytesRead += o.BytesRead
	s.RowsScanned += o.RowsScanned
	s.RowsEmitted += o.RowsEmitted
	s.RowsFiltered += o.RowsFiltered
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.FSBytesRead += o.FSBytesRead
	s.CacheBytesServed += o.CacheBytesServed
	s.PlanCacheHits += o.PlanCacheHits
	s.PlanCacheMisses += o.PlanCacheMisses
	s.BlocksSkipped += o.BlocksSkipped
	s.SparseIndexHits += o.SparseIndexHits
	s.SparseIndexMisses += o.SparseIndexMisses
	s.QueuedQueries += o.QueuedQueries
	s.ShedQueries += o.ShedQueries
	s.LegRedispatches += o.LegRedispatches
	s.ReplicaFailovers += o.ReplicaFailovers
	s.ReplicaRetries += o.ReplicaRetries
	s.AggPushedQueries += o.AggPushedQueries
	s.AggPartialGroups += o.AggPartialGroups
	s.VectorBatches += o.VectorBatches
	s.PlanTime += o.PlanTime
	s.IndexTime += o.IndexTime
	s.QueueTime += o.QueueTime
	s.ExtractTime += o.ExtractTime
	s.FilterTime += o.FilterTime
	s.AggTime += o.AggTime
	s.NetTime += o.NetTime
}

// Counters renders the deterministic (time-free) counters, one value
// per line — the form golden tests compare.
func (s *QueryStats) Counters() string {
	return fmt.Sprintf("chunks planned: %d\nchunks read: %d\nbytes read: %d\nrows scanned: %d\nrows emitted: %d\nrows filtered: %d",
		s.ChunksPlanned, s.ChunksRead, s.BytesRead, s.RowsScanned, s.RowsEmitted, s.RowsFiltered)
}

// CacheBytesSaved reports the bytes the block cache kept off the
// filesystem: bytes served from cached blocks minus bytes physically
// read, clamped at zero (a cold scan can read more than it serves due
// to block alignment).
func (s *QueryStats) CacheBytesSaved() int64 {
	saved := s.CacheBytesServed - s.FSBytesRead
	if saved < 0 {
		return 0
	}
	return saved
}

// String renders counters plus per-stage times on one line each. When
// the block or plan cache saw any traffic a summary line for it is
// appended; Counters stays byte-stable for golden tests either way.
func (s *QueryStats) String() string {
	var b strings.Builder
	b.WriteString(s.Counters())
	if s.CacheHits+s.CacheMisses > 0 {
		fmt.Fprintf(&b, "\ncache: %d hits / %d misses, %d fs bytes, %d bytes served, %d bytes saved",
			s.CacheHits, s.CacheMisses, s.FSBytesRead, s.CacheBytesServed, s.CacheBytesSaved())
	}
	if s.PlanCacheHits+s.PlanCacheMisses > 0 {
		fmt.Fprintf(&b, "\nplans: %d hits / %d misses", s.PlanCacheHits, s.PlanCacheMisses)
	}
	if s.BlocksSkipped+s.SparseIndexHits+s.SparseIndexMisses > 0 {
		fmt.Fprintf(&b, "\nsparse: %d blocks skipped, %d hits / %d misses",
			s.BlocksSkipped, s.SparseIndexHits, s.SparseIndexMisses)
	}
	if s.QueuedQueries+s.ShedQueries > 0 {
		fmt.Fprintf(&b, "\nserving: %d queued / %d shed", s.QueuedQueries, s.ShedQueries)
	}
	if s.LegRedispatches+s.ReplicaFailovers+s.ReplicaRetries > 0 {
		fmt.Fprintf(&b, "\nfailover: %d redispatched / %d failed over / %d retried",
			s.LegRedispatches, s.ReplicaFailovers, s.ReplicaRetries)
	}
	if s.AggPushedQueries+s.AggPartialGroups > 0 {
		fmt.Fprintf(&b, "\nagg: %d pushed / %d partial groups",
			s.AggPushedQueries, s.AggPartialGroups)
	}
	if s.VectorBatches > 0 {
		fmt.Fprintf(&b, "\nvector: %d batches", s.VectorBatches)
	}
	for _, st := range Stages {
		fmt.Fprintf(&b, "\n%-7s %s", st+":", s.StageTime(st).Round(time.Microsecond))
	}
	return b.String()
}

// Tracer observes query stages as they run. Implementations must be
// safe for concurrent use: a cluster coordinator traces the net stage
// of every node leg from its own goroutine.
type Tracer interface {
	// StageStart marks the beginning of stage for the given query text.
	StageStart(query string, stage Stage)
	// StageEnd marks its completion after elapsed d; err is the stage's
	// terminal error, nil on success.
	StageEnd(query string, stage Stage, d time.Duration, err error)
}

// CacheReporter is an optional Tracer extension: tracers implementing
// it additionally receive the block-cache outcome of each execution
// (hits, misses, bytes kept off the filesystem). The engine only calls
// it for executions that touched the cache.
type CacheReporter interface {
	CacheReport(query string, hits, misses, bytesSaved int64)
}

// ReportCache forwards an execution's cache outcome to t if it
// implements CacheReporter; no-op otherwise or when the cache saw no
// traffic.
func ReportCache(t Tracer, query string, hits, misses, bytesSaved int64) {
	if hits+misses == 0 {
		return
	}
	if cr, ok := t.(CacheReporter); ok {
		cr.CacheReport(query, hits, misses, bytesSaved)
	}
}

// SparseReporter is an optional Tracer extension: tracers implementing
// it receive each execution's data-skipping outcome, and — separately —
// a warning when a sidecar exists but was unusable (corrupt, stale, or
// version-mismatched) and the engine fell back to a full scan.
type SparseReporter interface {
	SparseReport(query string, blocksSkipped, hits, misses int64)
	SparseFallback(file, reason string)
}

// ReportSparse forwards an execution's data-skipping outcome to t if it
// implements SparseReporter; no-op otherwise or when no sidecar was
// consulted.
func ReportSparse(t Tracer, query string, blocksSkipped, hits, misses int64) {
	if blocksSkipped+hits+misses == 0 {
		return
	}
	if sr, ok := t.(SparseReporter); ok {
		sr.SparseReport(query, blocksSkipped, hits, misses)
	}
}

// ReportSparseFallback forwards a sidecar fallback warning to t if it
// implements SparseReporter.
func ReportSparseFallback(t Tracer, file, reason string) {
	if sr, ok := t.(SparseReporter); ok {
		sr.SparseFallback(file, reason)
	}
}

// NopTracer discards all events.
type NopTracer struct{}

// StageStart implements Tracer.
func (NopTracer) StageStart(string, Stage) {}

// StageEnd implements Tracer.
func (NopTracer) StageEnd(string, Stage, time.Duration, error) {}

// LogTracer logs stage ends through Logf. Stages faster than Slow are
// suppressed (Slow = 0 logs everything); failed stages always log.
type LogTracer struct {
	// Logf receives the formatted events; defaults to log.Printf.
	Logf func(format string, args ...any)
	// Slow is the slow-query threshold applied per stage.
	Slow time.Duration
}

// StageStart implements Tracer (start events are not logged).
func (t *LogTracer) StageStart(string, Stage) {}

// StageEnd implements Tracer.
func (t *LogTracer) StageEnd(query string, stage Stage, d time.Duration, err error) {
	if err == nil && d < t.Slow {
		return
	}
	logf := t.Logf
	if logf == nil {
		logf = log.Printf
	}
	if err != nil {
		logf("obs: %s %s failed after %s: %v", stage, truncateQuery(query), d.Round(time.Microsecond), err)
		return
	}
	logf("obs: %s %s took %s", stage, truncateQuery(query), d.Round(time.Microsecond))
}

// CacheReport implements CacheReporter; cache outcomes log only when
// Slow is zero (full logging), mirroring the per-stage suppression.
func (t *LogTracer) CacheReport(query string, hits, misses, bytesSaved int64) {
	if t.Slow > 0 {
		return
	}
	logf := t.Logf
	if logf == nil {
		logf = log.Printf
	}
	logf("obs: cache %s: %d hits / %d misses, %d bytes saved", truncateQuery(query), hits, misses, bytesSaved)
}

// SparseReport implements SparseReporter; like CacheReport it logs only
// when Slow is zero (full logging).
func (t *LogTracer) SparseReport(query string, blocksSkipped, hits, misses int64) {
	if t.Slow > 0 {
		return
	}
	logf := t.Logf
	if logf == nil {
		logf = log.Printf
	}
	logf("obs: sparse %s: %d blocks skipped, %d hits / %d misses",
		truncateQuery(query), blocksSkipped, hits, misses)
}

// SparseFallback implements SparseReporter. Fallbacks always log — an
// unusable sidecar silently costs full scans until it is rebuilt.
func (t *LogTracer) SparseFallback(file, reason string) {
	logf := t.Logf
	if logf == nil {
		logf = log.Printf
	}
	logf("obs: sparse sidecar for %s unusable, falling back to full scan: %s", file, reason)
}

// maxLoggedQuery bounds the SQL text echoed into logs.
const maxLoggedQuery = 120

func truncateQuery(q string) string {
	if len(q) > maxLoggedQuery {
		return q[:maxLoggedQuery] + "..."
	}
	return q
}

// MultiTracer fans events out to every tracer in order.
type MultiTracer []Tracer

// StageStart implements Tracer.
func (m MultiTracer) StageStart(query string, stage Stage) {
	for _, t := range m {
		t.StageStart(query, stage)
	}
}

// StageEnd implements Tracer.
func (m MultiTracer) StageEnd(query string, stage Stage, d time.Duration, err error) {
	for _, t := range m {
		t.StageEnd(query, stage, d, err)
	}
}

// CacheReport implements CacheReporter, forwarding to every member
// tracer that implements it.
func (m MultiTracer) CacheReport(query string, hits, misses, bytesSaved int64) {
	for _, t := range m {
		if cr, ok := t.(CacheReporter); ok {
			cr.CacheReport(query, hits, misses, bytesSaved)
		}
	}
}

// SparseReport implements SparseReporter, forwarding to every member
// tracer that implements it.
func (m MultiTracer) SparseReport(query string, blocksSkipped, hits, misses int64) {
	for _, t := range m {
		if sr, ok := t.(SparseReporter); ok {
			sr.SparseReport(query, blocksSkipped, hits, misses)
		}
	}
}

// SparseFallback implements SparseReporter, forwarding to every member
// tracer that implements it.
func (m MultiTracer) SparseFallback(file, reason string) {
	for _, t := range m {
		if sr, ok := t.(SparseReporter); ok {
			sr.SparseFallback(file, reason)
		}
	}
}

// ctxKey keys context values private to this package.
type ctxKey int

const tracerKey ctxKey = iota

// WithTracer returns a context carrying t; the engine reports every
// stage of queries run under that context to it.
func WithTracer(ctx context.Context, t Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the context's tracer, or NopTracer.
func TracerFrom(ctx context.Context) Tracer {
	if t, ok := ctx.Value(tracerKey).(Tracer); ok && t != nil {
		return t
	}
	return NopTracer{}
}

// Begin reports a stage start and returns the matching end function,
// which reports the stage end and returns its duration:
//
//	end := obs.Begin(tracer, sql, obs.StagePlan)
//	... work ...
//	planTime := end(err)
func Begin(t Tracer, query string, stage Stage) func(err error) time.Duration {
	t.StageStart(query, stage)
	start := time.Now()
	return func(err error) time.Duration {
		d := time.Since(start)
		t.StageEnd(query, stage, d, err)
		return d
	}
}
