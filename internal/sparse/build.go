package sparse

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"datavirt/internal/layout"
	"datavirt/internal/metadata"
	"datavirt/internal/schema"
)

// BuildOptions configures a sidecar build.
type BuildOptions struct {
	// BlockBytes is the zone-map granularity; DefaultBlockBytes when 0.
	BlockBytes int64
	// Attrs restricts the zone maps to these attributes; all stored
	// payload attributes when empty.
	Attrs []string
	// GridAttrs forces the grid dimensions; when empty the builder
	// prefers the descriptor's DATAINDEX attributes that the file stores,
	// then payload order, up to three co-dimensional attributes, and
	// omits the grid when fewer than two qualify.
	GridAttrs []string
	// GridCells is the cell count per grid dimension; 16 when 0.
	GridCells int
}

const defaultGridCells = 16

func (o BuildOptions) blockBytes() int64 {
	if o.BlockBytes > 0 {
		return o.BlockBytes
	}
	return DefaultBlockBytes
}

func (o BuildOptions) gridCells() int {
	if o.GridCells > 0 {
		return o.GridCells
	}
	return defaultGridCells
}

// dimKey canonicalizes the set of loop variables an access varies along.
func dimKey(a *layout.Access) string {
	vars := make([]string, 0, len(a.Steps))
	for _, s := range a.Steps {
		vars = append(vars, s.Var)
	}
	sort.Strings(vars)
	return strings.Join(vars, "\x00")
}

// BuildFile computes the sidecar for one data file whose instantiated
// layout is fl. data must cover [0, dataBytes); big selects big-endian
// value decoding. indexAttrs (may be nil) is the descriptor's effective
// DATAINDEX list, consulted when choosing default grid dimensions.
func BuildFile(fl *layout.FileLayout, data io.ReaderAt, dataBytes int64, big bool, indexAttrs []string, opt BuildOptions) (*Sidecar, error) {
	if dataBytes < fl.TotalBytes {
		return nil, fmt.Errorf("sparse: data file %d bytes, layout needs %d", dataBytes, fl.TotalBytes)
	}
	bb := opt.blockBytes()
	sc := &Sidecar{
		DataBytes:  dataBytes,
		BlockBytes: bb,
		NumBlocks:  ceilDiv(dataBytes, bb),
	}
	attrs := opt.Attrs
	if len(attrs) == 0 {
		for i := range fl.Accesses {
			attrs = append(attrs, fl.Accesses[i].Attr)
		}
	}
	// Zone pass: one monotone sweep per attribute, recording per-block
	// and global bounds.
	global := map[string][2]float64{}
	for _, name := range attrs {
		acc := fl.Access(name)
		if acc == nil {
			return nil, fmt.Errorf("sparse: file does not store attribute %q", name)
		}
		z := AttrZones{Name: name, Min: make([]float64, sc.NumBlocks), Max: make([]float64, sc.NumBlocks)}
		for b := range z.Min {
			z.Min[b], z.Max[b] = math.Inf(1), math.Inf(-1)
		}
		glo, ghi := math.Inf(1), math.Inf(-1)
		cr := &chunkReader{r: data, size: dataBytes}
		err := walkAccess(fl, acc, func(off int64) error {
			p, err := cr.at(off, acc.Size)
			if err != nil {
				return fmt.Errorf("sparse: read %s at %d: %w", name, off, err)
			}
			v := schema.DecodeValueOrder(acc.Kind, p, big).AsFloat()
			b0, b1 := off/bb, (off+acc.Size-1)/bb
			for b := b0; b <= b1; b++ {
				if v < z.Min[b] {
					z.Min[b] = v
				}
				if v > z.Max[b] {
					z.Max[b] = v
				}
			}
			if v < glo {
				glo = v
			}
			if v > ghi {
				ghi = v
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		global[name] = [2]float64{glo, ghi}
		sc.Attrs = append(sc.Attrs, z)
	}
	gridAttrs, err := chooseGridAttrs(fl, attrs, indexAttrs, opt.GridAttrs)
	if err != nil {
		return nil, err
	}
	if len(gridAttrs) >= 2 {
		g, err := buildGrid(fl, data, dataBytes, big, gridAttrs, opt.gridCells(), global)
		if err != nil {
			return nil, err
		}
		sc.Grid = g
	}
	return sc, nil
}

// chooseGridAttrs picks the grid dimensions: the explicit list when
// given (validated), otherwise index attributes the file stores followed
// by payload order, pruned to the first attribute's dimension set, at
// most three.
func chooseGridAttrs(fl *layout.FileLayout, zoneAttrs, indexAttrs, explicit []string) ([]string, error) {
	zone := map[string]bool{}
	for _, a := range zoneAttrs {
		zone[a] = true
	}
	if len(explicit) > 0 {
		key := ""
		for i, name := range explicit {
			acc := fl.Access(name)
			if acc == nil {
				return nil, fmt.Errorf("sparse: grid attribute %q not stored in file", name)
			}
			if !zone[name] {
				return nil, fmt.Errorf("sparse: grid attribute %q is not in the indexed attribute set", name)
			}
			if i == 0 {
				key = dimKey(acc)
			} else if dimKey(acc) != key {
				return nil, fmt.Errorf("sparse: grid attributes %q and %q vary along different dimensions",
					explicit[0], name)
			}
		}
		return explicit, nil
	}
	var cand []string
	seen := map[string]bool{}
	for _, name := range indexAttrs {
		if zone[name] && fl.Access(name) != nil && !seen[name] {
			cand = append(cand, name)
			seen[name] = true
		}
	}
	for i := range fl.Accesses {
		name := fl.Accesses[i].Attr
		if zone[name] && !seen[name] {
			cand = append(cand, name)
			seen[name] = true
		}
	}
	if len(cand) == 0 {
		return nil, nil
	}
	key := dimKey(fl.Access(cand[0]))
	var out []string
	for _, name := range cand {
		if dimKey(fl.Access(name)) == key {
			out = append(out, name)
			if len(out) == 3 {
				break
			}
		}
	}
	if len(out) < 2 {
		return nil, nil
	}
	return out, nil
}

// buildGrid performs the joint sweep: for every common element index of
// the co-dimensional grid attributes, bucket the value tuple and set its
// occupancy bit.
func buildGrid(fl *layout.FileLayout, data io.ReaderAt, dataBytes int64, big bool, attrs []string, cells int, global map[string][2]float64) (*Grid, error) {
	g := &Grid{
		Attrs: attrs,
		Min:   make([]float64, len(attrs)),
		Max:   make([]float64, len(attrs)),
		Cells: make([]int, len(attrs)),
	}
	accs := make([]*layout.Access, len(attrs))
	for d, name := range attrs {
		accs[d] = fl.Access(name)
		gb, ok := global[name]
		if !ok || emptyZone(gb[0], gb[1]) || math.IsInf(gb[0], 0) || math.IsInf(gb[1], 0) {
			return nil, nil // no finite bounds to bucket against
		}
		g.Min[d], g.Max[d] = gb[0], gb[1]
		g.Cells[d] = cells
	}
	total := 1
	for range attrs {
		if total > maxGridWords*64/cells {
			return nil, fmt.Errorf("sparse: grid cell space overflow (%d cells/dim, %d dims)", cells, len(attrs))
		}
		total *= cells
	}
	g.Bits = make([]uint64, (total+63)/64)
	// All attrs share one dimension set; walk it once using the first
	// access's step order and compute each attr's offset from the same
	// counter. Per-attr chunk readers keep reads sequential even when
	// the attributes live far apart in the file.
	readers := make([]*chunkReader, len(attrs))
	for d := range readers {
		readers[d] = &chunkReader{r: data, size: dataBytes}
	}
	anchor := accs[0]
	steps := make([][]int64, len(attrs)) // strides aligned to anchor's step order
	for d, acc := range accs {
		strides := make([]int64, len(anchor.Steps))
		for i, s := range anchor.Steps {
			strides[i] = acc.StrideAlong(s.Var)
		}
		steps[d] = strides
	}
	counts := make([]int64, len(anchor.Steps))
	for i, s := range anchor.Steps {
		dim, ok := fl.Dim(s.Var)
		if !ok {
			return nil, fmt.Errorf("sparse: access %s uses unknown dimension %s", anchor.Attr, s.Var)
		}
		counts[i] = dim.Count()
	}
	ctr := make([]int64, len(counts))
	widths := make([]float64, len(attrs))
	for d := range attrs {
		widths[d] = (g.Max[d] - g.Min[d]) / float64(cells)
	}
	for {
		cell := 0
		for d := range attrs {
			off := accs[d].Base
			for i, c := range ctr {
				off += c * steps[d][i]
			}
			p, err := readers[d].at(off, accs[d].Size)
			if err != nil {
				return nil, fmt.Errorf("sparse: read %s at %d: %w", attrs[d], off, err)
			}
			v := schema.DecodeValueOrder(accs[d].Kind, p, big).AsFloat()
			c := 0
			if widths[d] > 0 {
				c = int((v - g.Min[d]) / widths[d])
				if c < 0 {
					c = 0
				}
				if c >= cells {
					c = cells - 1
				}
			}
			cell = cell*cells + c
		}
		g.Bits[cell>>6] |= 1 << uint(cell&63)
		// Mixed-radix increment, innermost (last) fastest.
		i := len(ctr) - 1
		for ; i >= 0; i-- {
			ctr[i]++
			if ctr[i] < counts[i] {
				break
			}
			ctr[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return g, nil
}

// walkAccess visits the byte offset of every element of acc in layout
// order (innermost dimension fastest, so offsets are monotone).
func walkAccess(fl *layout.FileLayout, acc *layout.Access, visit func(off int64) error) error {
	counts := make([]int64, len(acc.Steps))
	for i, s := range acc.Steps {
		dim, ok := fl.Dim(s.Var)
		if !ok {
			return fmt.Errorf("sparse: access %s uses unknown dimension %s", acc.Attr, s.Var)
		}
		counts[i] = dim.Count()
	}
	ctr := make([]int64, len(counts))
	for {
		off := acc.Base
		for i, c := range ctr {
			off += c * acc.Steps[i].StrideBytes
		}
		if err := visit(off); err != nil {
			return err
		}
		i := len(ctr) - 1
		for ; i >= 0; i-- {
			ctr[i]++
			if ctr[i] < counts[i] {
				break
			}
			ctr[i] = 0
		}
		if i < 0 {
			return nil
		}
	}
}

// chunkReader serves small monotone reads from a large backing file with
// one syscall per chunk instead of one per element.
type chunkReader struct {
	r    io.ReaderAt
	size int64
	buf  []byte
	off  int64
	n    int64
}

const chunkReadBytes = 1 << 20

func (c *chunkReader) at(off, n int64) ([]byte, error) {
	if n <= 0 || off < 0 || off+n > c.size {
		return nil, io.ErrUnexpectedEOF
	}
	if off >= c.off && off+n <= c.off+c.n {
		return c.buf[off-c.off : off-c.off+n], nil
	}
	if c.buf == nil {
		c.buf = make([]byte, chunkReadBytes)
	}
	want := int64(len(c.buf))
	if off+want > c.size {
		want = c.size - off
	}
	m, err := c.r.ReadAt(c.buf[:want], off)
	if int64(m) < want {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	c.off, c.n = off, want
	return c.buf[:n], nil
}

// Resolver maps a (node, file) pair to a local filesystem path.
type Resolver func(node, file string) (string, error)

// NodeResolver resolves files under root/<node>/<file>, the convention
// shared with core.NodeResolver.
func NodeResolver(root string) Resolver {
	return func(node, file string) (string, error) {
		return filepath.Join(root, node, filepath.FromSlash(file)), nil
	}
}

// SidecarPath returns the sidecar path for a data file path.
func SidecarPath(dataPath string) string { return dataPath + Suffix }

// BuildDataset builds (or rebuilds) sidecars for every DATASPACE leaf
// file of the descriptor, resolving data files through resolve. It
// returns the number of sidecars written. CHUNKED leaves are skipped:
// their paired DVIX index files already provide chunk-level pruning.
// logf (may be nil) receives one line per written sidecar.
func BuildDataset(d *metadata.Descriptor, resolve Resolver, opt BuildOptions, logf func(format string, args ...any)) (int, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	written := 0
	for _, node := range d.Layout.Leaves(nil) {
		if len(node.Chunked) > 0 {
			continue
		}
		kinds, err := d.LeafKinds(node)
		if err != nil {
			return written, err
		}
		leaf, err := layout.CompileLeaf(node, kinds)
		if err != nil {
			return written, err
		}
		files, err := metadata.ExpandLeaf(d.Storage, node)
		if err != nil {
			return written, err
		}
		big := d.EffectiveByteOrder(node) == "BIG"
		indexAttrs := d.EffectiveIndexAttrs(node)
		for _, fi := range files {
			fl, err := leaf.Instantiate(fi.Env)
			if err != nil {
				return written, fmt.Errorf("sparse: file %s: %w", fi, err)
			}
			path, err := resolve(fi.Node(), fi.Path())
			if err != nil {
				return written, err
			}
			sc, err := buildOne(fl, path, big, indexAttrs, opt)
			if err != nil {
				return written, fmt.Errorf("sparse: %s: %w", path, err)
			}
			scPath := SidecarPath(path)
			if err := WriteFile(scPath, sc); err != nil {
				return written, err
			}
			written++
			logf("sparse: wrote %s (%d blocks, %d attrs, grid=%v)",
				scPath, sc.NumBlocks, len(sc.Attrs), sc.GridAttrs())
		}
	}
	return written, nil
}

func buildOne(fl *layout.FileLayout, path string, big bool, indexAttrs []string, opt BuildOptions) (*Sidecar, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return BuildFile(fl, f, st.Size(), big, indexAttrs, opt)
}

// VerifyDataset checks every DATASPACE leaf file's sidecar against its
// data: the sidecar must exist, decode, match the live file size, and
// reproduce bit-identically when rebuilt with its own parameters. It
// returns the number of sidecars verified.
func VerifyDataset(d *metadata.Descriptor, resolve Resolver, logf func(format string, args ...any)) (int, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	verified := 0
	for _, node := range d.Layout.Leaves(nil) {
		if len(node.Chunked) > 0 {
			continue
		}
		kinds, err := d.LeafKinds(node)
		if err != nil {
			return verified, err
		}
		leaf, err := layout.CompileLeaf(node, kinds)
		if err != nil {
			return verified, err
		}
		files, err := metadata.ExpandLeaf(d.Storage, node)
		if err != nil {
			return verified, err
		}
		big := d.EffectiveByteOrder(node) == "BIG"
		for _, fi := range files {
			fl, err := leaf.Instantiate(fi.Env)
			if err != nil {
				return verified, fmt.Errorf("sparse: file %s: %w", fi, err)
			}
			path, err := resolve(fi.Node(), fi.Path())
			if err != nil {
				return verified, err
			}
			if err := VerifyFile(fl, path, big); err != nil {
				return verified, err
			}
			verified++
			logf("sparse: ok %s", SidecarPath(path))
		}
	}
	return verified, nil
}

// VerifyFile checks the sidecar beside one data file: decode, staleness
// against the live size, and a rebuild with the sidecar's own block
// size, attribute list, and grid shape that must match exactly.
func VerifyFile(fl *layout.FileLayout, dataPath string, big bool) error {
	scPath := SidecarPath(dataPath)
	sc, err := ReadFile(scPath)
	if err != nil {
		return fmt.Errorf("%s: %w", scPath, err)
	}
	f, err := os.Open(dataPath)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if sc.DataBytes != st.Size() {
		return fmt.Errorf("%s: stale: sidecar built for %d data bytes, file has %d",
			scPath, sc.DataBytes, st.Size())
	}
	opt := BuildOptions{BlockBytes: sc.BlockBytes}
	for i := range sc.Attrs {
		opt.Attrs = append(opt.Attrs, sc.Attrs[i].Name)
	}
	if g := sc.Grid; g != nil {
		opt.GridAttrs = append(opt.GridAttrs, g.Attrs...)
		opt.GridCells = g.Cells[0]
	}
	want, err := BuildFile(fl, f, st.Size(), big, nil, opt)
	if err != nil {
		return fmt.Errorf("%s: rebuild: %w", scPath, err)
	}
	if sc.Grid == nil {
		want.Grid = nil // explicit GridAttrs may have produced one anyway
	}
	wantBytes, err := want.EncodeBytes()
	if err != nil {
		return err
	}
	gotBytes, err := sc.EncodeBytes()
	if err != nil {
		return err
	}
	if string(wantBytes) != string(gotBytes) {
		return fmt.Errorf("%s: sidecar does not match a rebuild from data", scPath)
	}
	return nil
}
