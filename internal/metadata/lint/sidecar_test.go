package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datavirt/internal/gen"
	"datavirt/internal/metadata"
	"datavirt/internal/sparse"
)

// sidecarFixture generates a monolithic layout-I Ipars dataset and
// returns its descriptor path, source text and data root. The
// descriptor declares DATAINDEX { REL TIME } on a DATASPACE leaf whose
// payload stores both, so sidecar coverage applies.
func sidecarFixture(t *testing.T) (descPath, src, root string) {
	t.Helper()
	root = t.TempDir()
	spec := gen.IparsSpec{
		Realizations: 1, TimeSteps: 2, GridPoints: 64, Partitions: 1,
		Attrs: 3, Seed: 7,
	}
	descPath, err := gen.WriteIpars(root, spec, "I")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	return descPath, string(raw), root
}

func TestCheckSidecarsMissing(t *testing.T) {
	descPath, src, root := sidecarFixture(t)
	ds := CheckSidecars(descPath, src, root)
	d := wantDiag(t, ds, "sidecar-missing")
	if d.Severity != metadata.SevWarning {
		t.Errorf("severity = %s, want warning", d.Severity)
	}
	if d.Line == 0 {
		t.Errorf("diagnostic has no position: %s", d)
	}
}

func TestCheckSidecarsSatisfied(t *testing.T) {
	descPath, src, root := sidecarFixture(t)
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sparse.BuildDataset(d, sparse.NodeResolver(root), sparse.BuildOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if ds := CheckSidecars(descPath, src, root); len(ds) != 0 {
		t.Errorf("built sidecars still diagnosed: %v", ds)
	}
}

func TestCheckSidecarsUnreadable(t *testing.T) {
	descPath, src, root := sidecarFixture(t)
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sparse.BuildDataset(d, sparse.NodeResolver(root), sparse.BuildOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	scPath := filepath.Join(root, "node0", "ipars", "alldata"+sparse.Suffix)
	if err := os.WriteFile(scPath, []byte("not a sidecar"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds := CheckSidecars(descPath, src, root)
	d2 := wantDiag(t, ds, "sidecar-missing")
	if !strings.Contains(d2.Message, "unreadable") {
		t.Errorf("message %q does not mention unreadable", d2.Message)
	}
}

// TestCheckSidecarsChunkedSkipped confirms chunked leaves are out of
// scope: their DATAINDEX attributes are served by the chunk index.
func TestCheckSidecarsChunkedSkipped(t *testing.T) {
	root := t.TempDir()
	spec := gen.TitanSpec{
		Points: 200, XMax: 100, YMax: 100, ZMax: 10,
		TilesX: 2, TilesY: 2, TilesZ: 1, Nodes: 1, Seed: 7,
	}
	descPath, err := gen.WriteTitan(root, spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range CheckSidecars(descPath, string(raw), root) {
		if d.Code == "sidecar-missing" {
			t.Errorf("chunked leaf diagnosed: %s", d)
		}
	}
}
