package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"datavirt/internal/gen"
	"datavirt/internal/metadata"
	"datavirt/internal/sparse"
	"datavirt/internal/table"
)

// pruneGolden pins, per (layout, query, Options.BlockBytes), what the
// sparse sidecars decide for a query and what that costs:
// "<row digest> bytes=<BytesRead> scanned=<RowsScanned> skipped=<BlocksSkipped>".
// The row digest is the first 8 bytes of the SHA-256 of the rows in
// delivery order. The values were recorded with the extractor-side
// pruner that consulted the sidecars block by block inside the decode
// loop, before pruning moved into planning, so a change to which
// blocks are skipped, or to what a skip saves, shows here.
var pruneGolden = map[string]string{
	"CLUSTER/0/0":     "59e888beb572d1ff bytes=32768 scanned=1024 skipped=0",
	"CLUSTER/0/512":   "59e888beb572d1ff bytes=29376 scanned=918 skipped=5",
	"CLUSTER/0/65536": "59e888beb572d1ff bytes=32768 scanned=1024 skipped=0",
	"CLUSTER/1/0":     "0a02f7e71344e3dd bytes=8192 scanned=512 skipped=0",
	"CLUSTER/1/512":   "0a02f7e71344e3dd bytes=8192 scanned=512 skipped=0",
	"CLUSTER/1/65536": "0a02f7e71344e3dd bytes=8192 scanned=512 skipped=0",
	"CLUSTER/2/0":     "ac0796b3da9fb9dd bytes=6144 scanned=512 skipped=2",
	"CLUSTER/2/512":   "ac0796b3da9fb9dd bytes=2544 scanned=212 skipped=34",
	"CLUSTER/2/65536": "ac0796b3da9fb9dd bytes=6144 scanned=512 skipped=2",
	"CLUSTER/3/0":     "79c77f530f679d6a bytes=24576 scanned=2048 skipped=8",
	"CLUSTER/3/512":   "79c77f530f679d6a bytes=12576 scanned=1048 skipped=128",
	"CLUSTER/3/65536": "79c77f530f679d6a bytes=24576 scanned=2048 skipped=8",
	"CLUSTER/4/0":     "7436662ad0a40996 bytes=16384 scanned=2048 skipped=8",
	"CLUSTER/4/512":   "7436662ad0a40996 bytes=14784 scanned=1848 skipped=96",
	"CLUSTER/4/65536": "7436662ad0a40996 bytes=16384 scanned=2048 skipped=8",
	"I/0/0":           "43afe2e097dfbb61 bytes=32768 scanned=1024 skipped=0",
	"I/0/512":         "43afe2e097dfbb61 bytes=17408 scanned=544 skipped=30",
	"I/0/65536":       "43afe2e097dfbb61 bytes=32768 scanned=1024 skipped=0",
	"I/1/0":           "0a02f7e71344e3dd bytes=8192 scanned=512 skipped=0",
	"I/1/512":         "0a02f7e71344e3dd bytes=8192 scanned=512 skipped=0",
	"I/1/65536":       "0a02f7e71344e3dd bytes=8192 scanned=512 skipped=0",
	"I/2/0":           "ac0796b3da9fb9dd bytes=12288 scanned=1024 skipped=0",
	"I/2/512":         "ac0796b3da9fb9dd bytes=1536 scanned=128 skipped=56",
	"I/2/65536":       "ac0796b3da9fb9dd bytes=12288 scanned=1024 skipped=0",
	"I/3/0":           "79c77f530f679d6a bytes=49152 scanned=4096 skipped=0",
	"I/3/512":         "79c77f530f679d6a bytes=12288 scanned=1024 skipped=192",
	"I/3/65536":       "79c77f530f679d6a bytes=49152 scanned=4096 skipped=0",
	"I/4/0":           "7436662ad0a40996 bytes=32768 scanned=4096 skipped=0",
	"I/4/512":         "7436662ad0a40996 bytes=12288 scanned=1536 skipped=160",
	"I/4/65536":       "7436662ad0a40996 bytes=32768 scanned=4096 skipped=0",
	"III/0/0":         "43afe2e097dfbb61 bytes=32768 scanned=1024 skipped=0",
	"III/0/512":       "43afe2e097dfbb61 bytes=17408 scanned=544 skipped=30",
	"III/0/65536":     "43afe2e097dfbb61 bytes=32768 scanned=1024 skipped=0",
	"III/1/0":         "0a02f7e71344e3dd bytes=8192 scanned=512 skipped=0",
	"III/1/512":       "0a02f7e71344e3dd bytes=8192 scanned=512 skipped=0",
	"III/1/65536":     "0a02f7e71344e3dd bytes=8192 scanned=512 skipped=0",
	"III/2/0":         "ac0796b3da9fb9dd bytes=12288 scanned=1024 skipped=0",
	"III/2/512":       "ac0796b3da9fb9dd bytes=1536 scanned=128 skipped=56",
	"III/2/65536":     "ac0796b3da9fb9dd bytes=12288 scanned=1024 skipped=0",
	"III/3/0":         "79c77f530f679d6a bytes=49152 scanned=4096 skipped=0",
	"III/3/512":       "79c77f530f679d6a bytes=12288 scanned=1024 skipped=192",
	"III/3/65536":     "79c77f530f679d6a bytes=49152 scanned=4096 skipped=0",
	"III/4/0":         "7436662ad0a40996 bytes=32768 scanned=4096 skipped=0",
	"III/4/512":       "7436662ad0a40996 bytes=12288 scanned=1536 skipped=160",
	"III/4/65536":     "7436662ad0a40996 bytes=32768 scanned=4096 skipped=0",
}

// pruneQueries are select.window's three templates at fixed slots, a
// Z slab and a Z-filtered GROUP BY.
var pruneQueries = []string{
	"SELECT * FROM IparsData WHERE REL = 1 AND TIME >= 2 AND TIME <= 3 AND SOIL > 0.95",
	"SELECT X, Y, SOIL, POIL FROM IparsData WHERE TIME = 2 AND REL = 0",
	"SELECT X, Z, SWAT FROM IparsData WHERE Z >= 6.3 AND TIME = 3",
	"SELECT X, SOIL FROM IparsData WHERE Z >= 6",
	"SELECT REL, COUNT(*), AVG(SOIL) FROM IparsData WHERE Z >= 5 GROUP BY REL",
}

// TestPruneGolden runs every pinned case with and without sidecar
// pruning: the rows must not depend on it, and the pruned run's rows,
// bytes, scanned rows and skipped blocks must match the golden.
func TestPruneGolden(t *testing.T) {
	spec := gen.IparsSpec{Realizations: 2, TimeSteps: 4, GridPoints: 512, Partitions: 2, Attrs: 5, Seed: 21}
	got := map[string]string{}
	for _, layout := range []string{"I", "III", "CLUSTER"} {
		root := t.TempDir()
		descPath, err := gen.WriteIpars(root, spec, layout)
		if err != nil {
			t.Fatal(err)
		}
		d, err := metadata.ParseFile(descPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sparse.BuildDataset(d, sparse.NodeResolver(root), sparse.BuildOptions{BlockBytes: 512}, nil); err != nil {
			t.Fatal(err)
		}
		svc, err := Open(descPath, root)
		if err != nil {
			t.Fatal(err)
		}
		for qi, sql := range pruneQueries {
			p, err := svc.PrepareContext(context.Background(), sql)
			if err != nil {
				t.Fatalf("%s: %q: %v", layout, sql, err)
			}
			for _, bb := range []int{0, 512, 64 << 10} {
				key := fmt.Sprintf("%s/%d/%d", layout, qi, bb)
				rows, st, err := p.CollectContext(context.Background(), Options{BlockBytes: bb})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				full, _, err := p.CollectContext(context.Background(), Options{BlockBytes: bb, NoSparse: true})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				digest := rowDigest(rows)
				if want := rowDigest(full); digest != want {
					t.Errorf("%s: pruned rows %s, full scan %s", key, digest, want)
				}
				got[key] = fmt.Sprintf("%s bytes=%d scanned=%d skipped=%d", digest, st.BytesRead, st.RowsScanned, st.BlocksSkipped)
			}
		}
		svc.Close()
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var bad []string
	for _, k := range keys {
		if pruneGolden[k] != got[k] {
			bad = append(bad, k)
		}
	}
	if len(bad) > 0 || len(pruneGolden) != len(got) {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Errorf("prune decisions differ from the golden at %v (%d golden, %d run); current values:\n%s",
			bad, len(pruneGolden), len(got), b.String())
	}
}

// rowDigest hashes rows in order, each value in its printed form.
func rowDigest(rows []table.Row) string {
	h := sha256.New()
	for _, r := range rows {
		for _, v := range r {
			fmt.Fprintf(h, "%s\t", v)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
