// Package core is the public engine of datavirt: the automatic data
// virtualization tool of Weng et al. (HPDC 2004). It ties the pieces
// together in the paper's two-phase design:
//
//  1. Open/Compile — performed once per descriptor: parse the meta-data,
//     enumerate and instantiate every file layout, and build the
//     specialized index and extraction machinery (the run-time analogue
//     of the paper's generated code; internal/codegen emits equivalent
//     Go source).
//  2. Query — performed per query with no code generation or meta-data
//     reprocessing: parse SQL, extract per-attribute ranges, compute
//     aligned file chunks via the index functions, extract, filter,
//     and project rows of the virtual table.
package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"datavirt/internal/afc"
	"datavirt/internal/cache"
	"datavirt/internal/extractor"
	"datavirt/internal/filter"
	"datavirt/internal/gen"
	"datavirt/internal/index"
	"datavirt/internal/metadata"
	"datavirt/internal/obs"
	"datavirt/internal/query"
	"datavirt/internal/schema"
	"datavirt/internal/sparse"
	"datavirt/internal/sqlparser"
	"datavirt/internal/table"
)

// Service is a compiled data service for one virtualized dataset.
// It is safe for concurrent queries.
type Service struct {
	desc     *metadata.Descriptor
	plan     *afc.Plan
	registry *filter.Registry
	resolver extractor.Resolver

	mu       sync.Mutex
	idxCache map[string]*index.ChunkIndex //dvlint:guardedby mu
	scCache  map[string]*sidecarEntry     //dvlint:guardedby mu
	idxGen   uint64                       //dvlint:guardedby mu (bumped by InvalidatePlans; fences stale installs)

	cmu        sync.Mutex
	blockCache *cache.Cache //dvlint:guardedby cmu
}

// Open loads the descriptor at descPath and compiles a service whose
// data files live under dataRoot in the canonical layout
// dataRoot/<node>/<dir-path>/<file>.
func Open(descPath, dataRoot string) (*Service, error) {
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		return nil, err
	}
	return Compile(d, NodeResolver(dataRoot))
}

// NodeResolver resolves segment files under root/<node>/<file>.
func NodeResolver(root string) extractor.Resolver {
	return func(node, file string) (string, error) {
		return filepath.Join(gen.NodePath(root, node), filepath.FromSlash(file)), nil
	}
}

// Compile builds a service from a parsed descriptor and a file
// resolver. All meta-data analysis happens here, before any query.
func Compile(d *metadata.Descriptor, resolver extractor.Resolver) (*Service, error) {
	plan, err := afc.Compile(d)
	if err != nil {
		return nil, err
	}
	return &Service{
		desc:     d,
		plan:     plan,
		registry: filter.NewRegistry(),
		resolver: resolver,
		idxCache: make(map[string]*index.ChunkIndex),
		scCache:  make(map[string]*sidecarEntry),
		// The node-local block cache, shared by every query this service
		// runs (the paper's data source service sits on exactly this
		// boundary). Defaults: 64 MiB, 256 KiB blocks; the cache starts no
		// goroutines.
		blockCache: cache.New(cache.Config{}),
	}, nil
}

// SetCacheConfig replaces the service's block cache. Call it before
// running queries (typically right after Compile/Open, from CLI
// flags); the previous cache is closed and its contents discarded.
// A Config with Disabled set turns block caching off while keeping
// handle pooling.
func (s *Service) SetCacheConfig(cfg cache.Config) {
	s.cmu.Lock()
	old := s.blockCache
	s.blockCache = cache.New(cfg)
	s.cmu.Unlock()
	if old != nil {
		old.Close()
	}
	// A cache swap marks a configuration boundary; drop memoized chunk
	// indexes and sidecars along with the blocks so no layer can serve
	// state from before the swap.
	s.InvalidatePlans()
}

// InvalidatePlans drops the memoized chunk indexes and sparse-index
// sidecars that planning and extraction read, and bumps their
// generation counter, so a load in flight cannot install state that
// survives the invalidation. Plans themselves are not memoized: every
// prepare generates its aligned file chunks afresh. Call it when the
// data under the descriptor changes.
func (s *Service) InvalidatePlans() {
	s.mu.Lock()
	s.idxCache = make(map[string]*index.ChunkIndex)
	s.scCache = make(map[string]*sidecarEntry)
	s.idxGen++
	s.mu.Unlock()
}

// CacheStats snapshots the shared block cache's counters.
func (s *Service) CacheStats() cache.Stats {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.blockCache.Stats()
}

// blockSource returns the cache queries should extract through.
func (s *Service) blockSource() cache.Source {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.blockCache
}

// Close releases the service's pooled file handles and cached blocks.
// Queries must have finished. The cache shutdown runs outside s.cmu so
// a concurrent CacheStats does not wait on it.
func (s *Service) Close() error {
	s.cmu.Lock()
	bc := s.blockCache
	s.cmu.Unlock()
	bc.Close()
	return nil
}

// Descriptor returns the parsed descriptor.
func (s *Service) Descriptor() *metadata.Descriptor { return s.desc }

// Plan returns the compiled AFC plan.
func (s *Service) Plan() *afc.Plan { return s.plan }

// Schema returns the virtual table's schema.
func (s *Service) Schema() *schema.Schema { return s.plan.Schema }

// TableName returns the virtual table's name (the storage section name).
func (s *Service) TableName() string { return s.desc.Storage.DatasetName }

// Filters returns the service's filter registry; callers may register
// additional user-defined filters before querying.
func (s *Service) Filters() *filter.Registry { return s.registry }

// loadIndex memoizes chunk-index files across queries. The disk read
// happens outside s.mu (which also guards every other index lookup);
// two queries racing on the same cold key may both read the file, and
// the second install wins — identical content, so that is benign. A
// read that straddles InvalidatePlans is fenced by the generation
// counter: its result is returned but not installed.
func (s *Service) loadIndex(fi metadata.FileInstance) (*index.ChunkIndex, error) {
	key := fi.Node() + "\x00" + fi.Path()
	s.mu.Lock()
	ix, ok := s.idxCache[key]
	gen := s.idxGen
	s.mu.Unlock()
	if ok {
		return ix, nil
	}
	path, err := s.resolver(fi.Node(), fi.Path())
	if err != nil {
		return nil, err
	}
	ix, err = index.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if gen == s.idxGen {
		s.idxCache[key] = ix
	}
	s.mu.Unlock()
	return ix, nil
}

// sidecarEntry memoizes one sparse-sidecar load. A missing sidecar is
// the normal case for unindexed datasets and caches as {nil, ""}; an
// unusable one (corrupt, stale, version-mismatched) caches its reason
// so every run can report the fallback deterministically.
type sidecarEntry struct {
	sc     *sparse.Sidecar
	errMsg string
}

// loadSidecar memoizes sparse sidecars across queries, mirroring
// loadIndex: I/O outside s.mu, generation-fenced install so a load
// straddling InvalidatePlans cannot resurrect pre-invalidation state.
// The sidecar bytes are read through the service's block cache, so hot
// sidecars cost no filesystem reads.
func (s *Service) loadSidecar(node, file string) *sidecarEntry {
	key := node + "\x00" + file
	s.mu.Lock()
	e, ok := s.scCache[key]
	gen := s.idxGen
	s.mu.Unlock()
	if ok {
		return e
	}
	e = s.readSidecar(node, file)
	s.mu.Lock()
	if gen == s.idxGen {
		s.scCache[key] = e
	}
	s.mu.Unlock()
	return e
}

func (s *Service) readSidecar(node, file string) *sidecarEntry {
	dataPath, err := s.resolver(node, file)
	if err != nil {
		return &sidecarEntry{}
	}
	scPath := sparse.SidecarPath(dataPath)
	scInfo, err := os.Stat(scPath)
	if err != nil {
		return &sidecarEntry{} // no sidecar: silent full scan
	}
	r, err := s.blockSource().Open(scPath)
	if err != nil {
		return &sidecarEntry{errMsg: err.Error()}
	}
	defer r.Release()
	sc, err := sparse.Decode(r, scInfo.Size())
	if err != nil {
		return &sidecarEntry{errMsg: err.Error()}
	}
	if dataInfo, err := os.Stat(dataPath); err == nil && dataInfo.Size() != sc.DataBytes {
		return &sidecarEntry{errMsg: fmt.Sprintf("stale: built for %d data bytes, file has %d",
			sc.DataBytes, dataInfo.Size())}
	}
	return &sidecarEntry{sc: sc}
}

// Prepared is a planned query: SQL resolved against the schema, ranges
// extracted, predicate compiled, and aligned file chunks computed.
type Prepared struct {
	svc *Service
	// Query is the parsed statement.
	Query *sqlparser.Query
	// Cols are the output column names (SELECT list, * expanded).
	Cols []string
	// OutSchema is the schema of emitted rows.
	OutSchema *schema.Schema
	// Ranges are the per-attribute constraint sets driving the index.
	Ranges query.Ranges
	// AFCs are the aligned file chunks the chunk index selected; Chunks
	// chooses what one execution reads of them.
	AFCs []afc.AFC
	// Agg is the aggregate plan for GROUP BY / aggregate-function
	// queries, nil for row queries. Aggregate queries evaluate partial
	// aggregates directly over extracted blocks — no row
	// materialization — and finalize locally (RunContext) or at the
	// cluster coordinator after merging per-leg partials.
	Agg *query.AggPlan

	work    []schema.Attribute
	workIdx map[string]int
	pred    query.Predicate
	vecPred *query.VectorPredicate
	project []int // work index per output column

	sqlText   string        // query text reported to tracers
	planTime  time.Duration // wall time of the plan stage
	indexTime time.Duration // wall time of the index stage
}

// PrepareContext parses, validates and plans a SQL query. The plan and
// index stages are reported to the context's obs.Tracer and their wall
// times recorded on the returned Prepared (surfaced later through
// Rows.Stats).
func (s *Service) PrepareContext(ctx context.Context, sql string) (*Prepared, error) {
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.PrepareParsedContext(ctx, q)
}

// PrepareParsedContext plans an already-parsed query.
func (s *Service) PrepareParsedContext(ctx context.Context, q *sqlparser.Query) (*Prepared, error) {
	tracer := obs.TracerFrom(ctx)
	sqlText := q.String()
	endPlan := obs.Begin(tracer, sqlText, obs.StagePlan)
	sch := s.Schema()
	if q.From != s.TableName() && q.From != sch.Name() {
		err := fmt.Errorf("core: unknown table %q (service provides %q)", q.From, s.TableName())
		endPlan(err)
		return nil, err
	}
	cols, err := query.Validate(q, sch, s.registry)
	if err != nil {
		endPlan(err)
		return nil, err
	}
	p := &Prepared{svc: s, Query: q, Cols: cols, sqlText: sqlText}

	if q.Aggregate() {
		p.Agg, err = query.BuildAggPlan(q, sch)
		if err != nil {
			endPlan(err)
			return nil, err
		}
		p.Cols = p.Agg.Labels()
	}

	// Working row layout: every attribute the predicate, projection or
	// aggregate touches, in schema order.
	neededSet := map[string]bool{}
	if p.Agg != nil {
		for _, c := range p.Agg.InputColumns() {
			neededSet[c] = true
		}
	} else {
		for _, c := range cols {
			neededSet[c] = true
		}
	}
	for _, c := range sqlparser.ExprColumns(q.Where) {
		neededSet[c] = true
	}
	p.workIdx = map[string]int{}
	var neededNames []string
	for _, a := range sch.Attrs() {
		if neededSet[a.Name] {
			p.workIdx[a.Name] = len(p.work)
			p.work = append(p.work, a)
			neededNames = append(neededNames, a.Name)
		}
	}
	lookup := func(name string) (int, bool) {
		i, ok := p.workIdx[name]
		return i, ok
	}
	if p.Agg != nil {
		p.OutSchema = p.Agg.OutSchema()
		if err := p.Agg.Bind(lookup); err != nil {
			endPlan(err)
			return nil, err
		}
	} else {
		p.OutSchema, err = sch.Project(cols)
		if err != nil {
			endPlan(err)
			return nil, err
		}
		p.project = make([]int, len(cols))
		for i, c := range cols {
			p.project[i] = p.workIdx[c]
		}
	}

	// A nil WHERE stays a nil Pred (not TruePredicate): the extractor
	// takes "no predicate" as license for the batch fast path.
	if q.Where != nil {
		p.pred, err = query.CompilePredicate(q.Where, lookup, s.registry)
		if err != nil {
			endPlan(err)
			return nil, err
		}
	}
	// The same WHERE clause compiled for batch (vectorized) evaluation;
	// the extractor prefers it unless Options.ScalarFilter forces the
	// per-row path.
	p.vecPred, err = query.CompileVectorPredicate(q.Where, lookup, s.registry)
	if err != nil {
		endPlan(err)
		return nil, err
	}
	p.Ranges = query.ExtractRanges(q.Where)
	p.planTime = endPlan(nil)

	// Index stage: aligned-file-chunk generation, the run-time analogue
	// of the paper's generated index functions. Everything it needs that
	// the query cannot change was computed by afc.Compile, so it runs
	// for every prepare.
	endIndex := obs.Begin(tracer, sqlText, obs.StageIndex)
	p.AFCs, err = s.plan.Generate(p.Ranges, neededNames, s.loadIndex)
	p.indexTime = endIndex(err)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Options tune query execution.
type Options struct {
	// Workers bounds the worker pool an aggregate query folds through
	// (0 = GOMAXPROCS capped at 8). Row queries stream in plan order on
	// one goroutine whatever its value.
	Workers int
	// NodeFilter restricts execution to AFCs whose segments all live on
	// the given node (used by cluster node servers). Empty = all.
	NodeFilter string
	// BlockBytes bounds per-segment read buffers.
	BlockBytes int
	// NoCache bypasses the service's shared block cache for this query;
	// reads go straight to the filesystem (handles are still pooled for
	// the duration of the run).
	NoCache bool
	// NoSparse disables sparse-sidecar data skipping for this query;
	// every block of every selected chunk is read and filtered. Pruning
	// never changes result rows, so this is a diagnostic knob.
	NoSparse bool
	// ScalarFilter forces per-row predicate evaluation instead of the
	// vectorized (batch) path. The two paths select identical rows, so
	// this is a diagnostic/benchmark knob.
	// Pinned by benchmark/run.go (the oracle's reference path).
	ScalarFilter bool
}

// Validate rejects nonsensical option values with explicit errors
// instead of silently falling back to defaults. The zero Options value
// is always valid.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("core: Options.Workers = %d is negative; use 0 for the default pool size", o.Workers)
	}
	if o.BlockBytes < 0 {
		return fmt.Errorf("core: Options.BlockBytes = %d is negative; use 0 for the default block size", o.BlockBytes)
	}
	return nil
}

// RunContext executes the prepared query, emitting projected rows
// under the reuse contract of extractor.EmitFunc (the slice is reused;
// copy to retain). Cancelling ctx stops extraction between block reads
// and returns the context's error; the extract and filter stages are
// reported to the context's obs.Tracer. The returned record is the
// execution's complete cost record, the same one Rows.Stats reports.
// For a streaming cursor over the same execution, use QueryContext.
func (p *Prepared) RunContext(ctx context.Context, opt Options, emit func(row table.Row) error) (obs.QueryStats, error) {
	return p.runBatches(ctx, opt, extractor.PerRow(emit))
}

// runBatches is the execution under RunContext, CollectContext and the
// QueryContext cursor: projected rows reach deliver a block at a time,
// under the batch contract of extractor.EmitFunc.
func (p *Prepared) runBatches(ctx context.Context, opt Options, deliver extractor.BatchFunc) (obs.QueryStats, error) {
	if err := opt.Validate(); err != nil {
		return obs.QueryStats{}, err
	}
	if p.Agg != nil {
		// Aggregate query: fold blocks into partials, finalize locally,
		// deliver the (small) aggregated result rows as one batch.
		state, stats, err := p.RunAggPartialContext(ctx, opt)
		if err != nil {
			return stats, err
		}
		if rows := state.Finalize(); len(rows) > 0 {
			err = deliver(rows)
		}
		return stats, err
	}
	inner := deliver
	if !p.identityProjection() {
		// Project each batch into a scratch matrix that is sized by the
		// batches seen (a point query never pays for a full block) and
		// reused.
		var out []table.Row
		inner = func(rows []table.Row) error {
			if len(out) < len(rows) {
				out = table.Matrix(max(len(rows), 2*len(out)), len(p.project))
			}
			for r, row := range rows {
				for i, wi := range p.project {
					out[r][i] = row[wi]
				}
			}
			return deliver(out[:len(rows)])
		}
	}
	return p.extract(ctx, opt, func(afcs []afc.AFC, xopt extractor.Options) (obs.QueryStats, error) {
		return extractor.RunBatchesContext(ctx, afcs, p.svc.resolver, xopt, inner)
	})
}

// RunAggPartialContext executes an aggregate query up to — but not
// including — finalization: every block is extracted, filtered and
// folded into partial aggregates, and the un-finalized state is
// returned. Cluster node legs use this to ship partials to the
// coordinator (which merges states from all legs before finalizing);
// local execution goes through RunContext, which finalizes immediately.
// It fails if the prepared query is not an aggregate.
func (p *Prepared) RunAggPartialContext(ctx context.Context, opt Options) (*query.AggState, obs.QueryStats, error) {
	if p.Agg == nil {
		return nil, obs.QueryStats{}, fmt.Errorf("core: %q is not an aggregate query", p.sqlText)
	}
	if err := opt.Validate(); err != nil {
		return nil, obs.QueryStats{}, err
	}
	var state *query.AggState
	stats, err := p.extract(ctx, opt, func(afcs []afc.AFC, xopt extractor.Options) (st obs.QueryStats, err error) {
		state, st, err = extractor.RunAggregateContext(ctx, afcs, p.svc.resolver, xopt, p.Agg)
		return st, err
	})
	return state, stats, err
}

// extract is one execution's extract stage: Chunks chooses the chunks
// and run extracts them. The record gains what the extractor does not
// count — Chunks' record, rows filtered, the plan and index times of
// prepare, the stage's wall time — and the filter and aggregate stages
// and the cache and sparse outcomes go to the context's tracer.
func (p *Prepared) extract(ctx context.Context, opt Options, run func([]afc.AFC, extractor.Options) (obs.QueryStats, error)) (obs.QueryStats, error) {
	tracer := obs.TracerFrom(ctx)
	endExtract := obs.Begin(tracer, p.sqlText, obs.StageExtract)
	afcs, stats := p.Chunks(ctx, opt)
	xopt := extractor.Options{
		Cols: p.work, Pred: p.pred, VecPred: p.vecPred, ScalarFilter: opt.ScalarFilter,
		BlockBytes: opt.BlockBytes, Workers: opt.Workers,
	}
	if !opt.NoCache {
		xopt.Source = p.svc.blockSource()
	}
	xstats, err := run(afcs, xopt)
	stats.Add(xstats)
	stats.RowsFiltered = stats.RowsScanned - stats.RowsEmitted
	stats.PlanTime, stats.IndexTime, stats.ExtractTime = p.planTime, p.indexTime, endExtract(err)
	tracer.StageEnd(p.sqlText, obs.StageFilter, stats.FilterTime, err)
	if p.Agg != nil {
		tracer.StageEnd(p.sqlText, obs.StageAggregate, stats.AggTime, err)
	}
	obs.ReportCache(tracer, p.sqlText, stats.CacheHits, stats.CacheMisses, stats.CacheBytesSaved())
	obs.ReportSparse(tracer, p.sqlText, stats.BlocksSkipped, stats.SparseIndexHits, stats.SparseIndexMisses)
	return stats, err
}

// PrepareStats returns the wall times of the plan and index stages
// recorded when the query was prepared (the cluster coordinator folds
// them into its per-query stats).
func (p *Prepared) PrepareStats() (plan, index time.Duration) {
	return p.planTime, p.indexTime
}

// PlanCacheCounters always returns 0, 0: there is no plan cache, and
// every prepare generates its AFC list. The method stays because the
// repository's benchmark reads it.
// Pinned by benchmark/layers.go (the core layer's prepare split).
func (p *Prepared) PlanCacheCounters() (hits, misses int64) {
	return 0, 0
}

// identityProjection reports whether the working row already is the
// output row (SELECT * or a projection matching the working order), in
// which case the per-row copy is skipped.
func (p *Prepared) identityProjection() bool {
	if len(p.project) != len(p.work) {
		return false
	}
	for i, wi := range p.project {
		if wi != i {
			return false
		}
	}
	return true
}

// CollectContext runs the query and returns all rows (copied). Large
// results are better consumed incrementally through QueryContext's
// Rows cursor, which does not materialize the result set.
func (p *Prepared) CollectContext(ctx context.Context, opt Options) ([]table.Row, obs.QueryStats, error) {
	var rows []table.Row
	stats, err := p.runBatches(ctx, opt, func(batch []table.Row) error {
		rows = table.CopyRows(rows, batch)
		return nil
	})
	return rows, stats, err
}

// QueryContext prepares and executes sql, returning a streaming Rows
// cursor — the primary result API: rows are consumed as extraction
// produces them, nothing is materialized, and closing the cursor
// cancels the in-flight query.
func (s *Service) QueryContext(ctx context.Context, sql string) (*Rows, error) {
	return s.QueryContextOptions(ctx, sql, Options{})
}

// QueryContextOptions is QueryContext with explicit execution options
// (fold pool size, block size, node filter).
func (s *Service) QueryContextOptions(ctx context.Context, sql string, opt Options) (*Rows, error) {
	p, err := s.PrepareContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	return p.QueryContext(ctx, opt)
}

// FilterByNode keeps the AFCs homed on node: every segment must live
// there, and AFCs without segments (projections of purely implicit
// attributes) belong to their recorded home node, so each chunk is
// served by exactly one node across the cluster.
func FilterByNode(afcs []afc.AFC, node string) []afc.AFC {
	var out []afc.AFC
	for _, a := range afcs {
		if a.Node != node {
			continue
		}
		all := true
		for _, seg := range a.Segments {
			if seg.Node != node {
				all = false
				break
			}
		}
		if all {
			out = append(out, a)
		}
	}
	return out
}

// CheckColocated fails on the first AFC whose segments span nodes.
// Node servers each run only the AFCs wholly their own (FilterByNode),
// so such a chunk would be silently dropped by every one of them; a
// distributed query must refuse it instead (co-locate aligned files
// when distributing data). It allocates nothing unless it fails.
func CheckColocated(afcs []afc.AFC) error {
	for i := range afcs {
		a := &afcs[i]
		for _, seg := range a.Segments {
			if seg.Node != a.Node {
				return fmt.Errorf("core: aligned file chunk spans nodes %s and %s: %s",
					a.Node, seg.Node, a.String())
			}
		}
	}
	return nil
}

// Nodes returns the distinct node names of the service's storage
// directories, in DIR order.
func (s *Service) Nodes() []string {
	seen := map[string]bool{}
	var out []string
	for _, d := range s.desc.Storage.Dirs {
		if !seen[d.Node] {
			seen[d.Node] = true
			out = append(out, d.Node)
		}
	}
	return out
}

// Replicas returns, for each primary node, the ordered set of nodes
// able to serve that primary's partition — the primary itself first,
// then its standbys. A standby qualifies only if it appears in the
// replica set of EVERY directory the primary owns: a server dispatched
// a partition's legs must be able to read all of its files. With no
// replicated directories the map degenerates to {node: [node]}.
func (s *Service) Replicas() map[string][]string {
	// Intersect the replica sets across each primary's directories.
	counts := map[string]map[string]int{} // primary -> candidate -> #dirs listing it
	dirs := map[string]int{}              // primary -> #dirs it owns
	for _, d := range s.desc.Storage.Dirs {
		dirs[d.Node]++
		m := counts[d.Node]
		if m == nil {
			m = map[string]int{}
			counts[d.Node] = m
		}
		seen := map[string]bool{}
		for _, n := range d.ReplicaNodes() {
			if !seen[n] { // guard against malformed duplicate entries
				seen[n] = true
				m[n]++
			}
		}
	}
	out := make(map[string][]string, len(dirs))
	for _, primary := range s.Nodes() {
		set := []string{primary}
		// Follow the first owned directory's replica order for a
		// deterministic result.
		for _, d := range s.desc.Storage.Dirs {
			if d.Node != primary {
				continue
			}
			for _, n := range d.ReplicaNodes() {
				if n != primary && counts[primary][n] == dirs[primary] {
					set = append(set, n)
				}
			}
			break
		}
		out[primary] = set
	}
	return out
}

// AllNodes returns every node the descriptor names: the primaries in
// DIR order (same as Nodes), then replica-only nodes in order of first
// appearance. A cluster deployment must run a server for each of these.
func (s *Service) AllNodes() []string {
	out := s.Nodes()
	seen := map[string]bool{}
	for _, n := range out {
		seen[n] = true
	}
	for _, d := range s.desc.Storage.Dirs {
		for _, n := range d.ReplicaNodes() {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}
