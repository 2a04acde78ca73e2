package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"datavirt/internal/gen"
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

// TestEveryPrepareRunsIndexStage: plans are not memoized, so repeating
// a query repeats AFC generation — and generation is deterministic.
func TestEveryPrepareRunsIndexStage(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()

	rec := &stageRecorder{}
	ctx := obs.WithTracer(context.Background(), rec)
	sql := "SELECT TIME FROM IparsData WHERE TIME = 2"
	var plans []*Prepared
	for i := 0; i < 2; i++ {
		p, err := svc.PrepareContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, idx := p.PrepareStats(); idx <= 0 {
			t.Errorf("prepare %d IndexTime = %v, want > 0", i, idx)
		}
		plans = append(plans, p)
	}
	if got := rec.count(obs.StageIndex); got != 2 {
		t.Errorf("index events = %d, want 2", got)
	}
	if got := rec.count(obs.StagePlan); got != 2 {
		t.Errorf("plan events = %d, want 2", got)
	}
	if !reflect.DeepEqual(plans[0].AFCs, plans[1].AFCs) {
		t.Error("the same query planned two different AFC lists")
	}
}

// TestPlanCacheQueryStats: the plan-cache counters of QueryStats and
// Prepared read zero by construction.
func TestPlanCacheQueryStats(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	defer svc.Close()

	sql := "SELECT TIME FROM IparsData WHERE TIME = 1"
	for i := 0; i < 2; i++ {
		p, err := prepare(svc, sql)
		if err != nil {
			t.Fatal(err)
		}
		if h, m := p.PlanCacheCounters(); h != 0 || m != 0 {
			t.Errorf("query %d: PlanCacheCounters = %d/%d, want 0/0", i, h, m)
		}
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
		if qs.PlanCacheHits != 0 || qs.PlanCacheMisses != 0 {
			t.Errorf("query %d: PlanCache = %d hits / %d misses, want 0/0", i, qs.PlanCacheHits, qs.PlanCacheMisses)
		}
		if qs.IndexTime <= 0 {
			t.Errorf("query %d: IndexTime = %v, want > 0", i, qs.IndexTime)
		}
	}
}

// TestInvalidatePlansDropsChunkIndexes: a chunked dataset's index is
// read once and memoized until InvalidatePlans, after which planning
// reads the index file again.
func TestInvalidatePlansDropsChunkIndexes(t *testing.T) {
	root := t.TempDir()
	descPath, err := gen.WriteTitan(root, gen.TitanSpec{
		Points: 500, XMax: 100, YMax: 100, ZMax: 10, TilesX: 2, TilesY: 2, TilesZ: 1, Nodes: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Open(descPath, root)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sql := "SELECT X FROM TitanData WHERE X < 50"
	if _, err := prepare(svc, sql); err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(gen.NodePath(root, "node0"), "titan", "chunks.idx")
	if err := os.Remove(idx); err != nil {
		t.Fatal(err)
	}
	if _, err := prepare(svc, sql); err != nil {
		t.Errorf("memoized index not used: %v", err)
	}
	svc.InvalidatePlans()
	if _, err := prepare(svc, sql); err == nil {
		t.Error("prepare after InvalidatePlans planned without the deleted index file")
	}
}
