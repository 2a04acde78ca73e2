package core

import (
	"math/rand"
	"sync"
	"testing"

	"datavirt/internal/cache"
	"datavirt/internal/table"
)

// Service-level cache conformance: the same queries through the same
// service must agree row for row with and without the block cache, and
// a warm pass must repeat the cold pass's lookups hit for hit.

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
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()
	svc.SetCacheConfig(cache.Config{BlockBytes: 4096})
	run := func(sql string, opt Options) ([][]float64, int64, int64, int64) {
		t.Helper()
		p, err := prepare(svc, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		rows, stats, err := collect(p, opt)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return rowsKey(rows), stats.CacheHits, stats.CacheMisses, stats.FSBytesRead
	}
	for qi, sql := range queries {
		plain, _, _, _ := run(sql, Options{NoCache: true})
		cold, coldHits, coldMisses, _ := run(sql, Options{})
		warm, warmHits, warmMisses, warmFS := run(sql, Options{})
		for _, got := range [][][]float64{cold, warm} {
			if len(got) != len(plain) {
				t.Fatalf("q%d: rows %d (cached) vs %d (uncached)", qi, len(got), len(plain))
			}
			for i := range plain {
				for j := range plain[i] {
					if got[i][j] != plain[i][j] {
						t.Fatalf("q%d row %d col %d: %v (cached) vs %v (uncached)", qi, i, j, got[i][j], plain[i][j])
					}
				}
			}
		}
		if warmMisses != 0 || warmFS != 0 || warmHits != coldHits+coldMisses {
			t.Errorf("q%d: warm pass %d hits / %d misses / %d fs bytes, cold %d hits / %d misses",
				qi, warmHits, warmMisses, warmFS, coldHits, coldMisses)
		}
	}
}

// TestServiceBackendShutdownStorm runs concurrent queries while plan
// invalidations and cache-config swaps (which close and replace the
// shared cache) land mid-flight, then closes the service — the -race
// shutdown-hygiene half of the conformance suite.
func TestServiceBackendShutdownStorm(t *testing.T) {
	t.Run("pread", func(t *testing.T) {
		svc, _ := iparsService(t, "CLUSTER")
		svc.SetCacheConfig(cache.Config{BlockBytes: 2048})
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
			svc.SetCacheConfig(cache.Config{BlockBytes: 2048})
		}
		close(stop)
		wg.Wait()
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
