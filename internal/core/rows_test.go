package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"datavirt/internal/extractor"
	"datavirt/internal/gen"
	"datavirt/internal/obs"
	"datavirt/internal/schema"
	"datavirt/internal/table"
)

func TestRowsIterationMatchesCollect(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	sql := "SELECT SOIL, TIME FROM IparsData WHERE TIME >= 2"
	p, err := prepare(svc, sql)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := collect(p, Options{})
	if err != nil {
		t.Fatal(err)
	}

	rows, err := svc.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "SOIL" || cols[1] != "TIME" {
		t.Errorf("Columns = %v", cols)
	}
	var got []table.Row
	for rows.Next() {
		got = append(got, rows.Row()) // rows are copies: retaining is safe
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("cursor produced %d rows, Collect %d", len(got), len(want))
	}
	for i := range want {
		if table.FormatRow(got[i]) != table.FormatRow(want[i]) {
			t.Fatalf("row %d: %s != %s", i, table.FormatRow(got[i]), table.FormatRow(want[i]))
		}
	}
	// After exhaustion the stats are available and Close stays clean.
	if rows.Stats() == nil {
		t.Fatal("Stats nil after exhaustion")
	}
	if err := rows.Close(); err != nil {
		t.Errorf("Close after exhaustion: %v", err)
	}
}

// TestRowsCloseCancelsExtraction closes the cursor mid-iteration and
// asserts the extraction goroutine exits without being drained by the
// consumer, with no goroutine leak (ISSUE 1 acceptance criterion).
func TestRowsCloseCancelsExtraction(t *testing.T) {
	svc, _ := bigIparsService(t)
	before := runtime.NumGoroutine()

	rows, err := svc.QueryContextOptions(context.Background(),
		"SELECT * FROM IparsData", Options{Parallel: true, Workers: 4, BlockBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && rows.Next(); i++ {
	}
	if err := rows.Close(); err != nil {
		t.Errorf("Close mid-iteration: %v", err) // own cancellation is not an error
	}
	if rows.Next() {
		t.Error("Next true after Close")
	}
	if rows.Stats() == nil {
		t.Error("Stats nil after Close")
	}
	assertNoGoroutineLeak(t, before)
}

// TestRowsParentContextCancelled cancels the caller's context during
// parallel extraction: Next must stop promptly and Err report
// context.Canceled, with all workers gone.
func TestRowsParentContextCancelled(t *testing.T) {
	svc, _ := bigIparsService(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := svc.QueryContextOptions(ctx,
		"SELECT * FROM IparsData", Options{Parallel: true, Workers: 4, BlockBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		if n++; n == 5 {
			cancel()
		}
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after parent cancel = %v", err)
	}
	rows.Close()
	assertNoGoroutineLeak(t, before)
}

func TestRowsDeadline(t *testing.T) {
	svc, _ := bigIparsService(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	rows, err := svc.QueryContextOptions(ctx, "SELECT * FROM IparsData",
		Options{BlockBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for rows.Next() { // slow consumer guarantees the deadline fires mid-query
		time.Sleep(50 * time.Microsecond)
	}
	if err := rows.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after deadline = %v", err)
	}
}

// TestQueryStatsGolden pins the deterministic QueryStats counters of a
// known query over the quickstart dataset.
func TestQueryStatsGolden(t *testing.T) {
	s := gen.IparsSpec{
		Realizations: 2, TimeSteps: 50, GridPoints: 200, Partitions: 4,
		Attrs: 17, Seed: 1, // the examples/quickstart spec
	}
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, "CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Open(descPath, root)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := svc.QueryContext(context.Background(),
		"SELECT X, Y, Z, SOIL FROM IparsData WHERE REL = 0 AND TIME = 25")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	st := rows.Stats()
	const want = `chunks planned: 4
chunks read: 4
bytes read: 3200
rows scanned: 200
rows emitted: 200
rows filtered: 0`
	if got := st.Counters(); got != want {
		t.Errorf("QueryStats counters:\n%s\nwant:\n%s", got, want)
	}
	if st.PlanTime <= 0 || st.IndexTime <= 0 || st.ExtractTime <= 0 {
		t.Errorf("stage times not recorded: %+v", st)
	}
	if st.NetTime != 0 {
		t.Errorf("local query recorded net time %v", st.NetTime)
	}
}

func TestOptionsValidate(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	p, err := prepare(svc, "SELECT TIME FROM IparsData")
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{{Workers: -1}, {BlockBytes: -4096}} {
		if _, err := p.RunContext(context.Background(), opt, func(table.Row) error { return nil }); err == nil {
			t.Errorf("Options %+v accepted", opt)
		} else if !strings.Contains(err.Error(), "negative") {
			t.Errorf("Options %+v: unhelpful error %v", opt, err)
		}
		if _, err := p.QueryContext(context.Background(), opt); err == nil {
			t.Errorf("QueryContext accepted %+v", opt)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero Options rejected: %v", err)
	}
}

// TestTracerSeesAllLocalStages runs a query under a recording tracer
// and checks the plan, index, extract and filter stages all report.
func TestTracerSeesAllLocalStages(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	rec := &stageRecorder{}
	ctx := obs.WithTracer(context.Background(), rec)
	rows, err := svc.QueryContext(ctx, "SELECT TIME FROM IparsData WHERE TIME = 1")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	rows.Close()
	for _, stage := range []obs.Stage{obs.StagePlan, obs.StageIndex, obs.StageExtract, obs.StageFilter} {
		if !rec.saw(stage) {
			t.Errorf("tracer never saw stage %s (got %v)", stage, rec.stages())
		}
	}
}

// bigIparsService opens a dataset large enough that full scans take
// many block reads, so cancellation reliably lands mid-extraction.
func bigIparsService(t *testing.T) (*Service, gen.IparsSpec) {
	t.Helper()
	s := gen.IparsSpec{
		Realizations: 2, TimeSteps: 30, GridPoints: 300, Partitions: 4,
		Attrs: 6, Seed: 7,
	}
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, "CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Open(descPath, root)
	if err != nil {
		t.Fatal(err)
	}
	return svc, s
}

func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines leaked: %d before, %d after\n%s",
			before, g, buf[:runtime.Stack(buf, true)])
	}
}

type stageRecorder struct {
	mu   sync.Mutex
	ends []obs.Stage
}

func (r *stageRecorder) StageStart(string, obs.Stage) {}

func (r *stageRecorder) StageEnd(q string, s obs.Stage, d time.Duration, err error) {
	r.mu.Lock()
	r.ends = append(r.ends, s)
	r.mu.Unlock()
}

func (r *stageRecorder) saw(s obs.Stage) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.ends {
		if e == s {
			return true
		}
	}
	return false
}

func (r *stageRecorder) stages() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	parts := make([]string, len(r.ends))
	for i, e := range r.ends {
		parts[i] = string(e)
	}
	return fmt.Sprint(parts)
}

// scriptedRows builds a cursor over a scripted runner: batches of the
// given sizes, each row {batch, index}, delivered from one reused
// buffer (borrowed) or from fresh memory (owned). After the last batch
// the runner returns fail.
func scriptedRows(ctx context.Context, sizes []int, owned bool, fail error) *Rows {
	return NewRows(ctx, []string{"B", "I"}, func(ctx context.Context, deliver extractor.BatchFunc) (obs.QueryStats, error) {
		reused := table.Matrix(slices.Max(sizes), 2)
		for b, n := range sizes {
			batch := reused[:n]
			if owned {
				batch = table.Matrix(n, 2)
			}
			for i, row := range batch {
				row[0], row[1] = schema.IntValue(int64(b)), schema.IntValue(int64(i))
			}
			if err := deliver(batch, owned); err != nil {
				return obs.QueryStats{}, err
			}
		}
		return obs.QueryStats{RowsEmitted: int64(len(sizes))}, fail
	})
}

// TestRowsScriptedBatches drives the cursor with scripted runners: rows
// retained across batch boundaries survive the producer reusing its
// buffer, the final partial batch arrives, empty batches are skipped,
// owned batches are forwarded without a copy, and every row delivered
// before a runner error is seen before Err reports it.
func TestRowsScriptedBatches(t *testing.T) {
	sizes := []int{3, 0, 3, 1}
	boom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		owned bool
		fail  error
	}{{"borrowed", false, nil}, {"owned", true, nil}, {"borrowed-then-error", false, boom}} {
		t.Run(tc.name, func(t *testing.T) {
			rows := scriptedRows(context.Background(), sizes, tc.owned, tc.fail)
			var got []table.Row
			for rows.Next() {
				got = append(got, rows.Row())
			}
			if err := rows.Err(); err != tc.fail {
				t.Fatalf("Err = %v, want %v", err, tc.fail)
			}
			check := func(when string) {
				t.Helper()
				k := 0
				for b, n := range sizes {
					for i := 0; i < n; i++ {
						if k >= len(got) {
							t.Fatalf("%s: only %d rows delivered", when, len(got))
						}
						if got[k][0].Int != int64(b) || got[k][1].Int != int64(i) {
							t.Fatalf("%s: row %d = %s, want batch %d index %d", when, k, table.FormatRow(got[k]), b, i)
						}
						k++
					}
				}
				if k != len(got) {
					t.Fatalf("%s: %d rows delivered, want %d", when, len(got), k)
				}
			}
			check("after drain")
			if err := rows.Close(); err != tc.fail {
				t.Errorf("Close = %v, want %v", err, tc.fail)
			}
			check("after Close")
			if tc.fail == nil && rows.Stats().RowsEmitted != int64(len(sizes)) {
				t.Errorf("Stats not the runner's: %+v", rows.Stats())
			}
		})
	}

	// An owned batch is handed over, not copied.
	batch := []table.Row{{schema.IntValue(7)}}
	rows := NewRows(context.Background(), []string{"V"}, func(ctx context.Context, deliver extractor.BatchFunc) (obs.QueryStats, error) {
		return obs.QueryStats{}, deliver(batch, true)
	})
	defer rows.Close()
	if !rows.Next() || &rows.Row()[0] != &batch[0][0] {
		t.Error("owned batch was copied on its way through the cursor")
	}
}

// TestRowsRetainedMatchCollect retains every row a real query's cursor
// hands out, across many batch boundaries, and compares them with
// CollectContext's — after the full drain and again after Close; then
// does the same for a cursor closed mid-stream.
func TestRowsRetainedMatchCollect(t *testing.T) {
	svc, _ := bigIparsService(t)
	for _, sql := range []string{
		"SELECT * FROM IparsData",
		"SELECT SOIL, TIME, X FROM IparsData WHERE TIME >= 3 AND SOIL > 0.2", // projection + vector filter
	} {
		p, err := prepare(svc, sql)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{BlockBytes: 1024} // a few dozen rows per batch
		want, _, err := p.CollectContext(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) < 1000 {
			t.Fatalf("%s: only %d rows; test is vacuous", sql, len(want))
		}
		same := func(when string, got []table.Row) {
			t.Helper()
			for i := range got {
				if !table.RowsEqual(got[i], want[i]) {
					t.Fatalf("%s, %s: row %d = %s, want %s", sql, when, i, table.FormatRow(got[i]), table.FormatRow(want[i]))
				}
			}
		}
		for _, stopAt := range []int{len(want), len(want) / 2} {
			rows, err := p.QueryContext(context.Background(), opt)
			if err != nil {
				t.Fatal(err)
			}
			var got []table.Row
			for len(got) < stopAt && rows.Next() {
				got = append(got, rows.Row())
			}
			if len(got) != stopAt {
				t.Fatalf("%s: cursor stopped after %d of %d rows: %v", sql, len(got), stopAt, rows.Err())
			}
			same("before Close", got)
			if err := rows.Close(); err != nil {
				t.Fatal(err)
			}
			same("after Close", got)
		}
	}
}

// blockedProducer returns a cursor whose runner delivers one-row
// batches for ever, and a channel that is closed once the runner has
// filled the cursor's channel and is about to block (or is blocked) on
// the next delivery.
func blockedProducer(ctx context.Context) (*Rows, <-chan struct{}) {
	full := make(chan struct{})
	rows := NewRows(ctx, []string{"V"}, func(ctx context.Context, deliver extractor.BatchFunc) (obs.QueryStats, error) {
		for i := 0; ; i++ {
			if i == rowsBuffer {
				close(full)
			}
			if err := deliver([]table.Row{{schema.IntValue(int64(i))}}, true); err != nil {
				return obs.QueryStats{}, err
			}
		}
	})
	return rows, full
}

// TestRowsCloseWhileProducerBlocked: Close, and a parent-context
// cancel, while the producer is blocked on a full channel both return
// promptly and leave no goroutine behind.
func TestRowsCloseWhileProducerBlocked(t *testing.T) {
	before := runtime.NumGoroutine()
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return", what)
		}
	}

	rows, full := blockedProducer(context.Background())
	<-full
	within("Close", func() {
		if err := rows.Close(); err != nil {
			t.Errorf("Close = %v", err) // own cancellation is not an error
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	rows, full = blockedProducer(ctx)
	<-full
	cancel()
	within("drain after parent cancel", func() {
		n := 0
		for rows.Next() {
			n++
		}
		if n > rowsBuffer+1 {
			t.Errorf("%d rows after cancel; at most the buffered ones may arrive", n)
		}
		if err := rows.Err(); !errors.Is(err, context.Canceled) {
			t.Errorf("Err after parent cancel = %v", err)
		}
		rows.Close()
	})
	assertNoGoroutineLeak(t, before)
}

// TestRowsFirstRowNotHeldBack: a runner that delivers one row and then
// blocks makes that row visible to Next — the cursor never waits to
// fill a batch.
func TestRowsFirstRowNotHeldBack(t *testing.T) {
	rows := NewRows(context.Background(), []string{"V"}, func(ctx context.Context, deliver extractor.BatchFunc) (obs.QueryStats, error) {
		if err := deliver([]table.Row{{schema.IntValue(42)}}, false); err != nil {
			return obs.QueryStats{}, err
		}
		<-ctx.Done()
		return obs.QueryStats{}, ctx.Err()
	})
	defer rows.Close()
	got := make(chan bool, 1)
	go func() { got <- rows.Next() }()
	select {
	case ok := <-got:
		if !ok || rows.Row()[0].Int != 42 {
			t.Fatalf("Next = %v, row %v", ok, rows.Row())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first row held back while the runner is blocked")
	}
}

// l0Service opens a generated L0 dataset (one realization, steps×grid
// rows of 22 columns) — the layout the benchmark's full scan uses.
func l0Service(tb testing.TB, steps, grid int) *Service {
	tb.Helper()
	root := tb.TempDir()
	descPath, err := gen.WriteIpars(root, gen.IparsSpec{
		Realizations: 1, TimeSteps: steps, GridPoints: grid, Partitions: 1, Attrs: 17, Seed: 3,
	}, "L0")
	if err != nil {
		tb.Fatal(err)
	}
	svc, err := Open(descPath, root)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { svc.Close() })
	return svc
}

// TestRowsDrainAllocations pins the cursor's delivery cost: a full
// drain allocates per batch, not per row. A return to copying or
// sending row by row costs at least one allocation per row and fails
// here rather than in the benchmark gate.
func TestRowsDrainAllocations(t *testing.T) {
	const steps, grid = 32, 1024
	svc := l0Service(t, steps, grid)
	p, err := prepare(svc, "SELECT * FROM IparsData")
	if err != nil {
		t.Fatal(err)
	}
	drained := 0
	allocs := testing.AllocsPerRun(5, func() {
		drained = drainCursor(t, p)
	})
	if drained != steps*grid {
		t.Fatalf("drained %d rows, want %d", drained, steps*grid)
	}
	t.Logf("%d rows, %.0f allocations", drained, allocs)
	if limit := float64(drained) / 64; allocs >= limit {
		t.Errorf("cursor drain of %d rows made %.0f allocations; want fewer than one per 64 rows (%.0f)", drained, allocs, limit)
	}
}

func drainCursor(tb testing.TB, p *Prepared) int {
	rows, err := p.QueryContext(context.Background(), Options{})
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil {
		tb.Fatal(err)
	}
	return n
}

// BenchmarkRowsDrain and BenchmarkRunCallback run one full scan of a
// 128k-row L0 dataset through the cursor and through the callback API;
// the ratio of their ns/op is the benchmark's core.cursor_overhead.
func BenchmarkRowsDrain(b *testing.B) {
	p := benchScan(b)
	for i := 0; i < b.N; i++ {
		benchRows = drainCursor(b, p)
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkRunCallback(b *testing.B) {
	p := benchScan(b)
	for i := 0; i < b.N; i++ {
		n := 0
		if _, err := p.RunContext(context.Background(), Options{}, func(table.Row) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		benchRows = n
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

var benchRows int

func benchScan(b *testing.B) *Prepared {
	svc := l0Service(b, 128, 1024)
	p, err := prepare(svc, "SELECT * FROM IparsData")
	if err != nil {
		b.Fatal(err)
	}
	drainCursor(b, p) // warm the block cache
	b.ReportAllocs()
	b.ResetTimer()
	return p
}
