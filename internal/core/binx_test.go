package core

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"datavirt/internal/metadata"
)

// TestBinXEndToEnd writes a raw binary file, describes it with a BinX
// document, and queries the resulting virtual table — the paper's
// claimed interoperability path for single-file binary descriptions.
func TestBinXEndToEnd(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "node0", "data")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// 6 time steps × 4 cells of (SOIL float32, SGAS float32), TIME-major.
	var buf []byte
	for tm := 0; tm < 6; tm++ {
		for g := 0; g < 4; g++ {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(tm)+float32(g)/10))
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(g)))
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "file0.dat"), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	binx := `
<binx byteOrder="littleEndian">
  <dataset src="node0/data/file0.dat" name="BinxDemo">
    <arrayFixed>
      <dim name="TIME" count="6"/>
      <dim name="GRID" count="4"/>
      <struct>
        <float-32 varName="SOIL"/>
        <float-32 varName="SGAS"/>
      </struct>
    </arrayFixed>
  </dataset>
</binx>
`
	binxPath := filepath.Join(root, "demo.binx")
	if err := os.WriteFile(binxPath, []byte(binx), 0o644); err != nil {
		t.Fatal(err)
	}
	// ParseFile auto-detects BinX.
	svc, err := Open(binxPath, root)
	if err != nil {
		t.Fatalf("Open(binx): %v", err)
	}
	rows, err := queryAll(svc, "SELECT TIME, GRID, SOIL FROM BinxDemo WHERE TIME >= 2 AND TIME <= 3 AND SGAS = 1")
	if err != nil {
		t.Fatal(err)
	}
	// TIME ∈ {2,3} × GRID=1 (SGAS == g == 1).
	if len(rows) != 2 {
		t.Fatalf("rows = %d: %v", len(rows), rows)
	}
	for i, r := range rows {
		tm := r[0].AsFloat()
		if tm != float64(2+i) || r[1].AsFloat() != 1 {
			t.Errorf("row %d = %v", i, r)
		}
		want := tm + 0.1
		if math.Abs(r[2].AsFloat()-want) > 1e-6 {
			t.Errorf("SOIL = %g, want %g", r[2].AsFloat(), want)
		}
	}
	_ = metadata.IsBinX // keep the import for the detection assertions below
	if !metadata.IsBinX(binx) || metadata.IsBinX("[S]\nA = int\n") {
		t.Error("IsBinX misdetects")
	}
}
