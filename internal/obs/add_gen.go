// Code generated by dvlint -generate; DO NOT EDIT.

package obs

// Add merges another execution's stats into s (stage times sum).
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
