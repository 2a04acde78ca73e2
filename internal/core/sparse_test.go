package core

import (
	"os"
	"testing"

	"datavirt/internal/cache"
	"datavirt/internal/cache/cachetest"
	"datavirt/internal/extractor"
	"datavirt/internal/gen"
	"datavirt/internal/metadata"
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

func runSparse(t *testing.T, svc *Service, opt Options) ([]table.Row, extractor.Stats) {
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

// TestSparseBackends runs the pruned query under both cache backends:
// identical rows and identical skip counts.
func TestSparseBackends(t *testing.T) {
	svc, _ := sparseService(t)
	want, _ := runSparse(t, svc, Options{BlockBytes: 512, NoSparse: true})
	var skipped []int64
	for _, backend := range []string{cache.BackendPread, cache.BackendMmap} {
		svc.SetCacheConfig(cache.Config{BlockBytes: 4096, Backend: backend})
		got, stats := runSparse(t, svc, sparseOpt)
		sameRows(t, got, want)
		if stats.BlocksSkipped == 0 {
			t.Errorf("%s: skipped 0 blocks", backend)
		}
		skipped = append(skipped, stats.BlocksSkipped)
	}
	if skipped[0] != skipped[1] {
		t.Errorf("skip counts diverge across backends: %v", skipped)
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
