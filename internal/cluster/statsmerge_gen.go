// Code generated by dvlint -generate; DO NOT EDIT.

package cluster

import (
	"time"

	"datavirt/internal/extractor"
	"datavirt/internal/obs"
)

// mergedStatsExtras holds the obs.QueryStats inputs the coordinator's
// trailer merge cannot derive from the summed extractor.Stats.
type mergedStatsExtras struct {
	ChunksPlanned    int
	RowsFiltered     int64
	PlanCacheHits    int64
	PlanCacheMisses  int64
	QueuedQueries    int64
	ShedQueries      int64
	LegRedispatches  int64
	ReplicaFailovers int64
	ReplicaRetries   int64
	PlanTime         time.Duration
	IndexTime        time.Duration
	QueueTime        time.Duration
	ExtractTime      time.Duration
	NetTime          time.Duration
}

// mergeQueryStats assembles the per-query observability record from
// the legs' summed extractor counters and the coordinator's extras,
// setting every QueryStats field.
func mergeQueryStats(x extractor.Stats, d mergedStatsExtras) obs.QueryStats {
	return obs.QueryStats{
		ChunksPlanned:     d.ChunksPlanned,
		ChunksRead:        x.AFCs,
		BytesRead:         x.BytesRead,
		RowsScanned:       x.RowsScanned,
		RowsEmitted:       x.RowsEmitted,
		RowsFiltered:      d.RowsFiltered,
		CacheHits:         x.CacheHits,
		CacheMisses:       x.CacheMisses,
		FSBytesRead:       x.FSBytesRead,
		CacheBytesServed:  x.CacheBytesServed,
		PlanCacheHits:     d.PlanCacheHits,
		PlanCacheMisses:   d.PlanCacheMisses,
		BlocksSkipped:     x.BlocksSkipped,
		SparseIndexHits:   x.SparseIndexHits,
		SparseIndexMisses: x.SparseIndexMisses,
		QueuedQueries:     d.QueuedQueries,
		ShedQueries:       d.ShedQueries,
		LegRedispatches:   d.LegRedispatches,
		ReplicaFailovers:  d.ReplicaFailovers,
		ReplicaRetries:    d.ReplicaRetries,
		AggPushedQueries:  x.AggPushedQueries,
		AggPartialGroups:  x.AggPartialGroups,
		VectorBatches:     x.VectorBatches,
		PlanTime:          d.PlanTime,
		IndexTime:         d.IndexTime,
		QueueTime:         d.QueueTime,
		ExtractTime:       d.ExtractTime,
		FilterTime:        time.Duration(x.FilterNS),
		AggTime:           time.Duration(x.AggNS),
		NetTime:           d.NetTime,
	}
}
