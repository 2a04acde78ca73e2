package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"datavirt/internal/afc"
	"datavirt/internal/cache"
	"datavirt/internal/obs"
)

// count returns how many times stage s ended.
func (r *stageRecorder) count(s obs.Stage) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.ends {
		if e == s {
			n++
		}
	}
	return n
}

func TestPlanCacheSemanticHit(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()

	// Two textually different queries with the same normalized ranges
	// and needed columns share one cached plan.
	a, err := prepare(svc, "SELECT SOIL, TIME FROM IparsData WHERE TIME >= 1 AND REL = 0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := prepare(svc, "SELECT TIME, SOIL FROM IparsData WHERE REL = 0 AND NOT TIME < 1")
	if err != nil {
		t.Fatal(err)
	}
	if h, m := a.PlanCacheCounters(); h != 0 || m != 1 {
		t.Errorf("first prepare counters = %d hits / %d misses, want 0/1", h, m)
	}
	if h, m := b.PlanCacheCounters(); h != 1 || m != 0 {
		t.Errorf("second prepare counters = %d hits / %d misses, want 1/0", h, m)
	}
	if !reflect.DeepEqual(a.AFCs, b.AFCs) {
		t.Error("range-equal queries produced different AFC lists")
	}
	if _, idx := b.PrepareStats(); idx != 0 {
		t.Errorf("warm prepare IndexTime = %v, want 0", idx)
	}
	if _, idx := a.PrepareStats(); idx <= 0 {
		t.Errorf("cold prepare IndexTime = %v, want > 0", idx)
	}
	st := svc.PlanCacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("PlanCacheStats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	if st.Bytes <= 0 {
		t.Errorf("PlanCacheStats.Bytes = %d, want > 0", st.Bytes)
	}

	// Different ranges or needed columns miss.
	c, err := prepare(svc, "SELECT SOIL, TIME FROM IparsData WHERE TIME >= 2 AND REL = 0")
	if err != nil {
		t.Fatal(err)
	}
	if h, m := c.PlanCacheCounters(); h != 0 || m != 1 {
		t.Errorf("distinct ranges counters = %d hits / %d misses, want 0/1", h, m)
	}

	// A cached plan still executes correctly.
	rows, _, err := collect(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := collect(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) || len(rows) == 0 {
		t.Errorf("cached plan emitted %d rows, fresh plan %d", len(rows), len(want))
	}
}

func TestPlanCacheSkipsIndexStage(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()

	rec := &stageRecorder{}
	ctx := obs.WithTracer(context.Background(), rec)
	sql := "SELECT TIME FROM IparsData WHERE TIME = 2"
	if _, err := svc.PrepareContext(ctx, sql); err != nil {
		t.Fatal(err)
	}
	if got := rec.count(obs.StageIndex); got != 1 {
		t.Fatalf("cold prepare index events = %d, want 1", got)
	}
	if _, err := svc.PrepareContext(ctx, sql); err != nil {
		t.Fatal(err)
	}
	if got := rec.count(obs.StageIndex); got != 1 {
		t.Errorf("warm prepare re-ran index stage (%d events)", got)
	}
	// The plan stage always runs (predicate compilation is per query).
	if got := rec.count(obs.StagePlan); got != 2 {
		t.Errorf("plan events = %d, want 2", got)
	}
}

func TestPlanCacheQueryStats(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()

	sql := "SELECT TIME FROM IparsData WHERE TIME = 1"
	for i, want := range []struct{ hits, misses int64 }{{0, 1}, {1, 0}} {
		rows, err := svc.QueryContext(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		qs := rows.Stats()
		if qs.PlanCacheHits != want.hits || qs.PlanCacheMisses != want.misses {
			t.Errorf("query %d: PlanCache = %d hits / %d misses, want %d/%d",
				i, qs.PlanCacheHits, qs.PlanCacheMisses, want.hits, want.misses)
		}
		if i == 1 && qs.IndexTime != 0 {
			t.Errorf("warm query IndexTime = %v, want 0", qs.IndexTime)
		}
	}
}

func TestPlanCacheInvalidate(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()

	sql := "SELECT TIME FROM IparsData WHERE TIME = 1"
	if _, err := prepare(svc, sql); err != nil {
		t.Fatal(err)
	}
	svc.InvalidatePlans()
	if st := svc.PlanCacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("after InvalidatePlans: %+v, want empty", st)
	}
	p, err := prepare(svc, sql)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := p.PlanCacheCounters(); h != 0 || m != 1 {
		t.Errorf("post-invalidation prepare = %d hits / %d misses, want 0/1", h, m)
	}
	// SetCacheConfig marks a configuration boundary and invalidates too.
	svc.SetCacheConfig(cache.Config{})
	if st := svc.PlanCacheStats(); st.Entries != 0 {
		t.Errorf("after SetCacheConfig: %+v, want no entries", st)
	}
}

func TestPlanCacheDisabledAndResize(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()

	svc.SetPlanCacheConfig(PlanCacheConfig{Disabled: true})
	sql := "SELECT TIME FROM IparsData WHERE TIME = 1"
	for i := 0; i < 2; i++ {
		p, err := prepare(svc, sql)
		if err != nil {
			t.Fatal(err)
		}
		if h, m := p.PlanCacheCounters(); h != 0 || m != 0 {
			t.Errorf("disabled cache recorded %d hits / %d misses", h, m)
		}
		if _, idx := p.PrepareStats(); idx <= 0 {
			t.Errorf("disabled cache skipped index stage (IndexTime %v)", idx)
		}
	}
	if st := svc.PlanCacheStats(); st.Hits+st.Misses+st.Entries != 0 {
		t.Errorf("disabled cache stats = %+v, want zero", st)
	}

	// A tiny cache evicts under entry pressure instead of growing.
	svc.SetPlanCacheConfig(PlanCacheConfig{MaxEntries: 1, Shards: 1})
	for i := 0; i < 4; i++ {
		if _, err := prepare(svc, fmt.Sprintf("SELECT TIME FROM IparsData WHERE TIME = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.PlanCacheStats()
	if st.Entries != 1 {
		t.Errorf("MaxEntries=1 cache holds %d entries", st.Entries)
	}
	if st.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", st.Evictions)
	}
}

func TestPlanCacheSingleFlight(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()

	// Gate plan construction so concurrent prepares pile onto one
	// in-flight build; exactly one may run Generate.
	pc := svc.planCacheRef()
	var builds int
	release := make(chan struct{})
	const workers = 8
	var wg sync.WaitGroup
	results := make([][]afc.AFC, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			afcs, _, err := pc.getOrBuild("k", func() ([]afc.AFC, error) {
				builds++ // safe: single flight means one builder
				<-release
				return []afc.AFC{{NumRows: 42}}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = afcs
		}(i)
	}
	// Let every worker reach the cache before releasing the build.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if builds != 1 {
		t.Errorf("build ran %d times, want 1", builds)
	}
	for i, afcs := range results {
		if len(afcs) != 1 || afcs[0].NumRows != 42 {
			t.Errorf("worker %d got %v", i, afcs)
		}
	}
	st := pc.stats()
	if st.Misses != 1 || st.Hits != workers-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", st, workers-1)
	}
}

func TestPlanCacheStaleGeneration(t *testing.T) {
	pc := newPlanCache(PlanCacheConfig{})
	if _, hit, _ := pc.getOrBuild("k", func() ([]afc.AFC, error) { return nil, nil }); hit {
		t.Fatal("cold build reported hit")
	}
	// Invalidation mid-flight: the generation snapshot predates the
	// bump, so the installed entry must not be served afterwards.
	pc2 := newPlanCache(PlanCacheConfig{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		pc2.getOrBuild("k", func() ([]afc.AFC, error) {
			pc2.invalidate()
			return []afc.AFC{{NumRows: 1}}, nil
		})
	}()
	<-done
	if _, hit, _ := pc2.getOrBuild("k", func() ([]afc.AFC, error) { return nil, nil }); hit {
		t.Error("entry installed during invalidation was served")
	}
}
