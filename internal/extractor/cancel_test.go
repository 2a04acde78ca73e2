package extractor

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"datavirt/internal/query"
	"datavirt/internal/table"
)

func TestRunContextCancelled(t *testing.T) {
	s := spec()
	p, root := setupIpars(t, s, "CLUSTER")
	afcs, err := p.Generate(query.Ranges{}, p.Schema.Names(), nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Cols: p.Schema.Attrs(), BlockBytes: 64}

	// Pre-cancelled context: nothing is extracted.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var n int64
	_, err = RunBatchesContext(ctx, afcs, nodeResolver(root), opt, PerRow(func(table.Row) error {
		n++
		return nil
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: err = %v", err)
	}
	if n != 0 {
		t.Errorf("pre-cancelled run emitted %d rows", n)
	}

	// Cancel mid-stream from the emit callback: the run stops at the
	// next block boundary and reports ctx.Err().
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	n = 0
	_, err = RunBatchesContext(ctx, afcs, nodeResolver(root), opt, PerRow(func(table.Row) error {
		n++
		if n == 10 {
			cancel()
		}
		return nil
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancel: err = %v", err)
	}
	if n >= s.IparsTotalRows() {
		t.Errorf("cancelled run still scanned everything (%d rows)", n)
	}
}

// TestRunParallelContextCancelled cancels the aggregate fold pool
// mid-flight and asserts the run returns ctx.Err() promptly, before
// folding every chunk, without leaking worker goroutines.
func TestRunParallelContextCancelled(t *testing.T) {
	s := spec()
	s.TimeSteps, s.GridPoints = 20, 200 // enough AFCs/rows to be mid-flight
	p, root := setupIpars(t, s, "CLUSTER")
	plan, opt, ranges := prepareAgg(t, p.Schema, "SELECT REL, COUNT(*), AVG(SOIL) FROM IparsData WHERE SOIL > -1 GROUP BY REL")
	afcs, err := p.Generate(ranges, p.Schema.Names(), nil)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers, opt.BlockBytes = 4, 64
	// Each worker resolves a file the first time one of its chunks
	// reads it: the third resolution cancels the run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var resolutions atomic.Int64
	resolve := func(node, file string) (string, error) {
		if resolutions.Add(1) == 3 {
			cancel()
		}
		return nodeResolver(root)(node, file)
	}

	before := runtime.NumGoroutine()
	_, stats, err := RunAggregateContext(ctx, afcs, resolve, opt, plan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pool cancel: err = %v", err)
	}
	if stats.ChunksRead >= len(afcs) {
		t.Errorf("cancelled pool still read all %d chunks", len(afcs))
	}
	// All pool goroutines must have exited;
	// allow the scheduler a moment to reap them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after cancellation", before, g)
	}
}

func TestRunParallelContextDeadline(t *testing.T) {
	s := spec()
	p, root := setupIpars(t, s, "CLUSTER")
	afcs, err := p.Generate(query.Ranges{}, p.Schema.Names(), nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, opt, _ := prepareAgg(t, p.Schema, "SELECT TIME, SUM(SGAS) FROM IparsData GROUP BY TIME")
	opt.Workers = 4
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err = RunAggregateContext(ctx, afcs, nodeResolver(root), opt, plan)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v", err)
	}
}

func TestFilterTimeRecorded(t *testing.T) {
	s := spec()
	p, root := setupIpars(t, s, "CLUSTER")
	afcs, err := p.Generate(query.Ranges{}, p.Schema.Names(), nil)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := runRows(afcs, nodeResolver(root), Options{Cols: p.Schema.Attrs()},
		func(table.Row) error { time.Sleep(10 * time.Microsecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	// Delivery slept ≥ 10µs per row, all charged to the filter stage.
	if min := time.Duration(stats.RowsEmitted) * 10 * time.Microsecond / 2; stats.FilterTime < min {
		t.Errorf("FilterTime = %s, want ≥ %s", stats.FilterTime, min)
	}
}
