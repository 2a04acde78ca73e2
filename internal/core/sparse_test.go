package core

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"datavirt/internal/cache"
	"datavirt/internal/cache/cachetest"
	"datavirt/internal/gen"
	"datavirt/internal/metadata"
	"datavirt/internal/obs"
	"datavirt/internal/sparse"
	"datavirt/internal/table"
)

// sparseService generates a monolithic layout-I Ipars dataset whose Z
// coordinate is piecewise-constant along the file, builds sparse
// sidecars with tiny zone blocks (8 rows each), and opens a service on
// it. The returned path is the single data file's sidecar.
func sparseService(t *testing.T) (*Service, string) {
	t.Helper()
	s := gen.IparsSpec{
		Realizations: 1, TimeSteps: 2, GridPoints: 512, Partitions: 1,
		Attrs: 5, Seed: 21,
	}
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, "I")
	if err != nil {
		t.Fatal(err)
	}
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sparse.BuildDataset(d, sparse.NodeResolver(root), sparse.BuildOptions{BlockBytes: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("built %d sidecars, want 1", n)
	}
	svc, err := Open(descPath, root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc, sparse.SidecarPath(root + "/node0/ipars/alldata")
}

// sparseSQL selects a narrow Z window: grid 512 gives an 8x8x8 box, so
// Z >= 6 keeps the top quarter of the file's blocks.
const sparseSQL = "SELECT X, SOIL FROM IparsData WHERE Z >= 6"

// sparseOpt aligns the extraction buffer with the 512-byte zone blocks
// so each zone decision maps to one extraction block.
var sparseOpt = Options{BlockBytes: 512}

func runSparse(t *testing.T, svc *Service, opt Options) ([]table.Row, obs.QueryStats) {
	t.Helper()
	p, err := prepare(svc, sparseSQL)
	if err != nil {
		t.Fatal(err)
	}
	rows, stats, err := collect(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rows, stats
}

func sameRows(t *testing.T, got, want []table.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j].AsFloat() != want[i][j].AsFloat() {
				t.Fatalf("row %d col %d: %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestSparsePruning(t *testing.T) {
	svc, _ := sparseService(t)
	want, off := runSparse(t, svc, Options{BlockBytes: 512, NoSparse: true})
	if off.BlocksSkipped != 0 || off.SparseIndexHits != 0 {
		t.Fatalf("NoSparse run consulted the index: %+v", off)
	}
	got, on := runSparse(t, svc, sparseOpt)
	sameRows(t, got, want)
	if on.BlocksSkipped == 0 {
		t.Errorf("indexed run skipped 0 blocks, stats %+v", on)
	}
	if on.SparseIndexHits == 0 || on.SparseIndexMisses != 0 {
		t.Errorf("index lookups = %d hits / %d misses, want >0 / 0", on.SparseIndexHits, on.SparseIndexMisses)
	}
	if on.BytesRead >= off.BytesRead {
		t.Errorf("indexed run read %d logical bytes, full scan %d", on.BytesRead, off.BytesRead)
	}
}

// TestSparseFallbackCorrupt damages the sidecar file in place and
// checks every mutation degrades to a full scan with identical rows —
// never an error, never a wrong answer.
func TestSparseFallbackCorrupt(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			raw := readAll(t, path)
			writeAll(t, path, raw[:len(raw)/2])
		}},
		{"header-magic", func(t *testing.T, path string) { flipByte(t, path, 0) }},
		{"trailer-magic", func(t *testing.T, path string) { flipByte(t, path, -1) }},
		{"version", func(t *testing.T, path string) { flipByte(t, path, -8) }},
		{"block-count", func(t *testing.T, path string) { flipByte(t, path, 16) }},
		{"stale-data-size", func(t *testing.T, path string) {
			// DataBytes in the trailer no longer matches the file on disk.
			flipByte(t, path, -16)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, scPath := sparseService(t)
			want, _ := runSparse(t, svc, Options{BlockBytes: 512, NoSparse: true})
			tc.mutate(t, scPath)
			svc.InvalidatePlans()
			got, stats := runSparse(t, svc, sparseOpt)
			sameRows(t, got, want)
			if stats.BlocksSkipped != 0 {
				t.Errorf("skipped %d blocks through a damaged sidecar", stats.BlocksSkipped)
			}
			if stats.SparseIndexMisses == 0 {
				t.Errorf("no index miss recorded, stats %+v", stats)
			}
		})
	}
}

// TestSparseFallbackMissing deletes the sidecar: silently a full scan,
// with the lookup recorded as a miss.
func TestSparseFallbackMissing(t *testing.T) {
	svc, scPath := sparseService(t)
	want, _ := runSparse(t, svc, Options{BlockBytes: 512, NoSparse: true})
	if err := os.Remove(scPath); err != nil {
		t.Fatal(err)
	}
	svc.InvalidatePlans()
	got, stats := runSparse(t, svc, sparseOpt)
	sameRows(t, got, want)
	if stats.BlocksSkipped != 0 || stats.SparseIndexMisses == 0 {
		t.Errorf("missing sidecar: skipped %d, misses %d", stats.BlocksSkipped, stats.SparseIndexMisses)
	}
}

// TestSparseFallbackOpenFault injects an open failure (cachetest.Disk)
// on the sidecar read: the query still answers from a full scan.
func TestSparseFallbackOpenFault(t *testing.T) {
	svc, _ := sparseService(t)
	want, _ := runSparse(t, svc, Options{BlockBytes: 512, NoSparse: true})
	disk := &cachetest.Disk{}
	svc.SetCacheConfig(cache.Config{BlockBytes: 4096, OpenFile: disk.Open})
	// The first open of the indexed run is the sidecar's: prune state is
	// resolved before the data file is pooled.
	disk.FailNextOpens(1)
	got, stats := runSparse(t, svc, sparseOpt)
	sameRows(t, got, want)
	if stats.BlocksSkipped != 0 {
		t.Errorf("skipped %d blocks without a readable sidecar", stats.BlocksSkipped)
	}
	if stats.SparseIndexMisses == 0 {
		t.Errorf("no index miss recorded, stats %+v", stats)
	}
	// The failure is memoized per service generation: a second run falls
	// back the same way without re-reading.
	got2, _ := runSparse(t, svc, sparseOpt)
	sameRows(t, got2, want)
}

// TestSparseCachedPasses runs the pruned query cold and then warm
// through the block cache: identical rows and identical skip counts.
func TestSparseCachedPasses(t *testing.T) {
	svc, _ := sparseService(t)
	want, _ := runSparse(t, svc, Options{BlockBytes: 512, NoSparse: true})
	svc.SetCacheConfig(cache.Config{BlockBytes: 4096})
	var skipped []int64
	for _, pass := range []string{"cold", "warm"} {
		got, stats := runSparse(t, svc, sparseOpt)
		sameRows(t, got, want)
		if stats.BlocksSkipped == 0 {
			t.Errorf("%s: skipped 0 blocks", pass)
		}
		skipped = append(skipped, stats.BlocksSkipped)
	}
	if skipped[0] != skipped[1] {
		t.Errorf("skip counts diverge across passes: %v", skipped)
	}
}

// TestSparseGridDropsChunk stores X = Y along one loop, so each zone
// map covers every value of both and cannot prune X >= 6 AND Y <= 1;
// only the (X, Y) occupancy grid proves the chunk holds no such row. The
// chunk must be dropped whole, before any block is read.
func TestSparseGridDropsChunk(t *testing.T) {
	d, err := metadata.Parse(`
[S]
G = int
X = int
Y = int
V = float

[GridData]
DatasetDescription = S
DIR[0] = node0/g

Dataset "GridData" {
  DATATYPE { S }
  DATAINDEX { G }
  DATASPACE { LOOP G 0:99:1 { X Y V } }
  DATA { DIR[0]/f }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := gen.Materialize(d, root, func(attr string, at map[string]int64) float64 {
		return float64(at["G"] % 10)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sparse.BuildDataset(d, sparse.NodeResolver(root), sparse.BuildOptions{GridAttrs: []string{"X", "Y"}}, nil); err != nil {
		t.Fatal(err)
	}
	svc, err := Compile(d, NodeResolver(root))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	p, err := prepare(svc, "SELECT V FROM GridData WHERE X >= 6 AND Y <= 1")
	if err != nil {
		t.Fatal(err)
	}
	rows, st, err := collect(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 || st.ChunksPlanned != 1 || st.ChunksRead != 0 || st.BlocksSkipped != 1 || st.RowsScanned != 0 {
		t.Errorf("grid did not drop the chunk: %d rows, %+v", len(rows), st)
	}
	if _, off, err := collect(p, Options{NoSparse: true}); err != nil || off.RowsScanned != 100 {
		t.Errorf("full scan: %v, %+v", err, off)
	}
}

// TestChunksReadNoDataFile plans the pruned query, deletes the data
// file, drops the memoized sidecars and plans again: Chunks decides from
// the sidecars alone, so the runs and counters must be the same.
func TestChunksReadNoDataFile(t *testing.T) {
	svc, scPath := sparseService(t)
	p, err := prepare(svc, sparseSQL)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats := p.Chunks(context.Background(), sparseOpt)
	if wantStats.BlocksSkipped == 0 || wantStats.SparseIndexHits != 1 {
		t.Fatalf("sidecars cut nothing: %d chunks -> %d runs, %+v", len(p.AFCs), len(want), wantStats)
	}
	if err := os.Remove(strings.TrimSuffix(scPath, sparse.Suffix)); err != nil {
		t.Fatal(err)
	}
	svc.InvalidatePlans()
	got, gotStats := p.Chunks(context.Background(), sparseOpt)
	if !reflect.DeepEqual(got, want) || gotStats != wantStats {
		t.Errorf("planning without the data file: %d runs %+v, with it %d runs %+v", len(got), gotStats, len(want), wantStats)
	}
	if _, _, err := collect(p, sparseOpt); err == nil {
		t.Error("the query ran without its data file")
	}
}

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func writeAll(t *testing.T, path string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// flipByte XORs one byte of the file; negative offsets count from EOF.
func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	raw := readAll(t, path)
	if off < 0 {
		off += len(raw)
	}
	raw[off] ^= 0xFF
	writeAll(t, path, raw)
}

// TestChunksUntouchedWithoutSidecars: when no file of a ranged query has
// a sidecar, Chunks returns the plan's own chunk slice instead of a
// copy, so what it allocates does not grow with the number of chunks.
func TestChunksUntouchedWithoutSidecars(t *testing.T) {
	ctx := context.Background()
	allocs := func(steps int) float64 {
		p, err := prepare(l0Service(t, steps, 64), "SELECT * FROM IparsData WHERE SOIL < 1000")
		if err != nil {
			t.Fatal(err)
		}
		got, st := p.Chunks(ctx, Options{})
		if len(p.Ranges) == 0 || st.SparseIndexMisses == 0 {
			t.Fatalf("no sidecar was looked for (ranges %v, %+v); test is vacuous", p.Ranges, st)
		}
		if len(got) != len(p.AFCs) || &got[0] != &p.AFCs[0] {
			t.Errorf("%d chunks: Chunks copied the plan's chunk list", len(p.AFCs))
		}
		n := testing.AllocsPerRun(20, func() { p.Chunks(ctx, Options{}) })
		t.Logf("%d chunks: %.0f allocations", len(p.AFCs), n)
		return n
	}
	if small, large := allocs(8), allocs(32); large != small {
		t.Errorf("Chunks allocations grow with the chunk count: %.0f, then %.0f for 4x the chunks", small, large)
	}
}
