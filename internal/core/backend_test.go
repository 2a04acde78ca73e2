package core

import (
	"math/rand"
	"sync"
	"testing"

	"datavirt/internal/cache"
	"datavirt/internal/cache/cachetest"
	"datavirt/internal/extractor"
	"datavirt/internal/table"
)

// Service-level cross-backend conformance: the same queries through
// the same service under the pread and mmap cache backends must agree
// row for row and hit for hit; only how cold bytes arrive may differ.

func rowsKey(rows []table.Row) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		vals := make([]float64, len(r))
		for j := range r {
			vals[j] = r[j].AsFloat()
		}
		out[i] = vals
	}
	return out
}

func TestServiceBackendConformance(t *testing.T) {
	queries := []string{
		"SELECT * FROM IparsData WHERE TIME >= 1 AND TIME <= 2",
		"SELECT SOIL, TIME FROM IparsData WHERE REL = 1",
		"SELECT * FROM IparsData WHERE TIME = 3 AND SGAS > 0.5",
	}
	type result struct {
		rows  [][][]float64
		stats []extractor.Stats
	}
	run := func(backend string) result {
		svc, _ := iparsService(t, "CLUSTER")
		defer svc.Close()
		svc.SetCacheConfig(cache.Config{BlockBytes: 4096, Backend: backend})
		var res result
		for _, sql := range queries {
			p, err := prepare(svc, sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			rows, stats, err := collect(p, Options{})
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			res.rows = append(res.rows, rowsKey(rows))
			res.stats = append(res.stats, stats)
		}
		return res
	}
	pread := run(cache.BackendPread)
	mmap := run(cache.BackendMmap)
	for qi := range queries {
		pr, mr := pread.rows[qi], mmap.rows[qi]
		if len(pr) != len(mr) {
			t.Fatalf("q%d: rows %d (pread) vs %d (mmap)", qi, len(pr), len(mr))
		}
		for i := range pr {
			for j := range pr[i] {
				if pr[i][j] != mr[i][j] {
					t.Fatalf("q%d row %d col %d: %v (pread) vs %v (mmap)", qi, i, j, pr[i][j], mr[i][j])
				}
			}
		}
		ps, ms := pread.stats[qi], mmap.stats[qi]
		if ps.CacheHits != ms.CacheHits || ps.CacheMisses != ms.CacheMisses {
			t.Errorf("q%d: lookup sequences diverge: pread %d/%d mmap %d/%d",
				qi, ps.CacheHits, ps.CacheMisses, ms.CacheHits, ms.CacheMisses)
		}
		if ms.FSBytesRead > ps.FSBytesRead {
			t.Errorf("q%d: mmap copied more than pread: %d > %d", qi, ms.FSBytesRead, ps.FSBytesRead)
		}
		// Where mappings served blocks, they replaced copies outright.
		if ms.MmapBlocksServed > 0 && ps.FSBytesRead > 0 && ms.FSBytesRead >= ps.FSBytesRead {
			t.Errorf("q%d: mmap served %d blocks yet copied as much as pread (%d bytes)",
				qi, ms.MmapBlocksServed, ms.FSBytesRead)
		}
	}
}

// TestServiceBackendRefusalFallback points the service's cache at an
// opener whose descriptors refuse to map (cachetest's fault): the mmap
// backend must produce the same rows through its pread fallback.
func TestServiceBackendRefusalFallback(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()
	sql := "SELECT * FROM IparsData WHERE TIME >= 1 AND TIME <= 2"
	want, err := queryAll(svc, sql)
	if err != nil {
		t.Fatal(err)
	}

	disk := &cachetest.Disk{RefuseMmap: true}
	svc.SetCacheConfig(cache.Config{BlockBytes: 4096, Backend: cache.BackendMmap, OpenFile: disk.Open})
	p, err := prepare(svc, sql)
	if err != nil {
		t.Fatal(err)
	}
	rows, stats, err := collect(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("fallback rows = %d, want %d", len(rows), len(want))
	}
	if stats.MmapBlocksServed != 0 {
		t.Errorf("refused mappings still served %d blocks", stats.MmapBlocksServed)
	}
	if stats.FSBytesRead == 0 || disk.Reads.Load() == 0 {
		t.Errorf("fallback did not read through pread: %+v (%d physical reads)",
			stats, disk.Reads.Load())
	}
}

// TestServiceBackendShutdownStorm runs concurrent queries against both
// backends while plan invalidations and cache-config swaps (which
// close and replace the shared cache) land mid-flight, then closes the
// service — the -race shutdown-hygiene half of the conformance suite.
func TestServiceBackendShutdownStorm(t *testing.T) {
	for _, backend := range []string{cache.BackendPread, cache.BackendMmap} {
		t.Run(backend, func(t *testing.T) {
			svc, _ := iparsService(t, "CLUSTER")
			svc.SetCacheConfig(cache.Config{BlockBytes: 2048, Backend: backend})
			sqls := []string{
				"SELECT * FROM IparsData WHERE TIME >= 1 AND TIME <= 2",
				"SELECT SOIL FROM IparsData WHERE REL = 1",
			}
			want := map[string]int{}
			for _, sql := range sqls {
				rows, err := queryAll(svc, sql)
				if err != nil {
					t.Fatal(err)
				}
				want[sql] = len(rows)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 30; i++ {
						select {
						case <-stop:
							return
						default:
						}
						sql := sqls[rng.Intn(len(sqls))]
						rows, err := queryAll(svc, sql)
						if err != nil {
							return // lost the race to Close
						}
						if len(rows) != want[sql] {
							panic("storm query returned wrong row count")
						}
					}
				}(w)
			}
			// Invalidations and a cache swap land while queries run.
			for i := 0; i < 5; i++ {
				svc.InvalidatePlans()
				svc.SetCacheConfig(cache.Config{BlockBytes: 2048, Backend: backend})
			}
			close(stop)
			wg.Wait()
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
