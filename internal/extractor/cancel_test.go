package extractor

import (
	"context"
	"errors"
	"runtime"
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
	_, err = RunBatchesContext(ctx, afcs, nodeResolver(root), opt, false, PerRow(func(table.Row) error {
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
	_, err = RunBatchesContext(ctx, afcs, nodeResolver(root), opt, false, PerRow(func(table.Row) error {
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

// TestRunParallelContextCancelled cancels a parallel extraction
// mid-flight and asserts the run returns ctx.Err() promptly without
// leaking worker goroutines (the acceptance criterion of ISSUE 1).
func TestRunParallelContextCancelled(t *testing.T) {
	s := spec()
	s.TimeSteps, s.GridPoints = 20, 200 // enough AFCs/rows to be mid-flight
	p, root := setupIpars(t, s, "CLUSTER")
	afcs, err := p.Generate(query.Ranges{}, p.Schema.Names(), nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Cols: p.Schema.Attrs(), Workers: 4, BlockBytes: 64}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n int64
	_, err = RunBatchesContext(ctx, afcs, nodeResolver(root), opt, true, PerRow(func(table.Row) error {
		n++
		if n == 10 {
			cancel()
		}
		return nil
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel cancel: err = %v", err)
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
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = RunBatchesContext(ctx, afcs, nodeResolver(root),
		Options{Cols: p.Schema.Attrs(), Workers: 4}, true, PerRow(func(table.Row) error { return nil }))
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
	stats, err := runRows(afcs, nodeResolver(root), Options{Cols: p.Schema.Attrs()}, false,
		func(table.Row) error { time.Sleep(10 * time.Microsecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	// Delivery slept ≥ 10µs per row, all charged to the filter stage.
	if min := stats.RowsEmitted * 10 * int64(time.Microsecond) / 2; stats.FilterNS < min {
		t.Errorf("FilterNS = %d, want ≥ %d", stats.FilterNS, min)
	}
}
