// Package gen generates the synthetic datasets of the paper's two
// applications — IPARS oil-reservoir simulation output and Titan
// satellite sensor data — in every file layout the evaluation uses
// (the original L0, layouts I–VI, and the Figure 4 cluster layout), at
// sizes scaled to the test machine.
//
// Values are pure deterministic functions of their coordinates
// (realization, time step, grid point, attribute), so any reader can be
// verified against regeneration without storing ground truth.
package gen

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"datavirt/internal/metadata"
	"datavirt/internal/schema"
)

// ValueFunc produces the value of attr at the given coordinates. The
// map contains the file's binding variables and all enclosing loop
// variables (e.g. REL, TIME, GRID for an IPARS data file).
type ValueFunc func(attr string, at map[string]int64) float64

// NodePath returns the canonical local directory for a cluster node's
// data under root: root/<node>. The materializer writes there and
// extractor resolvers read from there.
func NodePath(root, node string) string { return filepath.Join(root, node) }

// Materialize writes every data file of every DATASPACE leaf in the
// descriptor under root, using the descriptor's own layout description
// to drive the byte order — the same interpretation the query engine
// uses, exercised in reverse. Chunked leaves are not handled here (see
// the Titan writer).
func Materialize(d *metadata.Descriptor, root string, value ValueFunc) error {
	for _, node := range d.Layout.Leaves(nil) {
		if len(node.Chunked) > 0 {
			return fmt.Errorf("gen: Materialize cannot write chunked dataset %q", node.Name)
		}
		kinds, err := d.LeafKinds(node)
		if err != nil {
			return err
		}
		files, err := metadata.ExpandLeaf(d.Storage, node)
		if err != nil {
			return err
		}
		big := d.EffectiveByteOrder(node) == "BIG"
		for _, fi := range files {
			if err := writeFile(root, fi, node, kinds, value, big); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeFile(root string, fi metadata.FileInstance, node *metadata.DatasetNode,
	kinds map[string]schema.Kind, value ValueFunc, big bool) error {
	path := filepath.Join(NodePath(root, fi.Node()), filepath.FromSlash(fi.Path()))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)

	at := make(map[string]int64, len(fi.Env)+4)
	for k, v := range fi.Env {
		at[k] = v
	}
	buf := make([]byte, 0, 8)
	var emit func(items []metadata.SpaceItem) error
	emit = func(items []metadata.SpaceItem) error {
		for _, it := range items {
			switch v := it.(type) {
			case metadata.AttrRef:
				kind := kinds[v.Name]
				buf = schema.EncodeValueOrder(buf[:0], schema.KindValue(kind, value(v.Name, at)), big)
				if _, err := w.Write(buf); err != nil {
					return err
				}
			case *metadata.Loop:
				env := metadata.Env(at)
				lo, err := v.Lo.Eval(env)
				if err != nil {
					return err
				}
				hi, err := v.Hi.Eval(env)
				if err != nil {
					return err
				}
				step, err := v.Step.Eval(env)
				if err != nil {
					return err
				}
				if step <= 0 {
					return fmt.Errorf("gen: loop %s has non-positive step", v.Var)
				}
				saved, had := at[v.Var]
				for x := lo; x <= hi; x += step {
					at[v.Var] = x
					if err := emit(v.Body); err != nil {
						return err
					}
				}
				if had {
					at[v.Var] = saved
				} else {
					delete(at, v.Var)
				}
			}
		}
		return nil
	}
	if node.Space == nil {
		f.Close()
		return fmt.Errorf("gen: leaf %q has no dataspace", node.Name)
	}
	if err := emit(node.Space.Items); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mix64 is SplitMix64: a tiny, high-quality deterministic hash used to
// derive reproducible pseudo-random values from coordinates.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// u01 maps a hash to [0, 1).
func u01(x uint64) float64 { return float64(x>>11) / float64(1<<53) }

// hashAt derives a stable hash from a seed and up to four coordinates.
func hashAt(seed int64, a, b, c, d int64) uint64 {
	h := mix64(uint64(seed))
	h = mix64(h ^ uint64(a)*0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(b)*0xc2b2ae3d27d4eb4f)
	h = mix64(h ^ uint64(c)*0x165667b19e3779f9)
	h = mix64(h ^ uint64(d)*0x27d4eb2f165667c5)
	return h
}
