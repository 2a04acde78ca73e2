package metadata

import (
	"fmt"
	"path"
	"strconv"
	"strings"
)

// maxFiles bounds file expansion: a descriptor (data plus index files,
// checked by Check) and any one leaf expanded in code (ExpandLeaf,
// ExpandIndexFiles) may describe at most this many files. The largest
// generated descriptor has 512 files and a compiled file costs about
// 2 KB, so the bound caps a plan near 130 MB where a hostile binding
// range would otherwise allocate until the process is killed.
const maxFiles = 1 << 16

// FileInstance is one concrete file produced by expanding a FileClause's
// bindings: the storage directory it lives in, its expanded name, and the
// binding-variable assignment that produced it. The assignment is the
// source of the file's implicit attributes (paper §4): attribute values
// that are not stored in the file but inferred from the directory or
// file name plus the meta-data description.
type FileInstance struct {
	Clause   *FileClause
	DirIndex int
	Dir      DirEntry
	Name     string
	Env      Env
}

// Path returns the file's path relative to the node's data root:
// dir-path/name.
func (fi FileInstance) Path() string {
	if fi.Dir.Path == "" {
		return fi.Name
	}
	return path.Join(fi.Dir.Path, fi.Name)
}

// Node returns the cluster node holding the file.
func (fi FileInstance) Node() string { return fi.Dir.Node }

// String renders node:path for diagnostics.
func (fi FileInstance) String() string { return fi.Dir.Node + ":" + fi.Path() }

// evalRange evaluates lo:hi:step under env.
func evalRange(lo, hi, step Expr, env Env) (r [3]int64, err error) {
	for i, e := range [3]Expr{lo, hi, step} {
		if r[i], err = e.Eval(env); err != nil {
			break
		}
	}
	return r, err
}

// bindingRange evaluates b under env: its first value, its step, and
// its extent, capped at limit+1 so huge ranges cost nothing to size.
func bindingRange(n *DatasetNode, b *Binding, env Env, limit int) (lo, step int64, extent int, err error) {
	r, err := evalRange(b.Lo, b.Hi, b.Step, env)
	lo, hi, step := r[0], r[1], r[2]
	switch {
	case err != nil:
		return 0, 0, 0, errorf(b.Pos, "file-clause", "dataset %q: binding %s: %v", n.Name, b.Var, err)
	case step <= 0:
		return 0, 0, 0, errorf(b.Pos, "file-clause", "dataset %q: binding %s has non-positive step %d", n.Name, b.Var, step)
	case lo > hi:
		return 0, 0, 0, errorf(b.Pos, "file-clause", "dataset %q: binding %s has empty range %d:%d", n.Name, b.Var, lo, hi)
	}
	// hi-lo cannot overflow as unsigned once lo <= hi.
	if q := uint64(hi-lo) / uint64(step); q < uint64(limit) {
		return lo, step, int(q) + 1, nil
	}
	return lo, step, limit + 1, nil
}

// expandClause enumerates the files of one clause, iterating its
// bindings in order (later bindings may reference earlier ones). It
// counts before it enumerates: the innermost binding's extent is
// computed, not iterated, and counting stops once it passes budget, so
// an over-budget clause fails in at most budget steps with a
// file-budget error.
func expandClause(st *Storage, n *DatasetNode, fc *FileClause, budget int) ([]FileInstance, error) {
	count := 0
	env := Env{}
	// each visits every assignment of the bindings from i on. With a nil
	// leaf it only counts, taking the last binding's extent whole.
	var each func(i int, leaf func() error) error
	each = func(i int, leaf func() error) error {
		if i == len(fc.Bindings) {
			if leaf == nil {
				count++
				return nil
			}
			return leaf()
		}
		b := &fc.Bindings[i]
		lo, step, extent, err := bindingRange(n, b, env, budget)
		if err != nil {
			return err
		}
		if leaf == nil && i == len(fc.Bindings)-1 {
			count += extent
			return nil
		}
		for k := 0; k < extent && count <= budget; k++ {
			env[b.Var] = lo + int64(k)*step
			if err := each(i+1, leaf); err != nil {
				return err
			}
		}
		delete(env, b.Var)
		return nil
	}
	if err := each(0, nil); err != nil {
		return nil, err
	}
	if count > budget {
		return nil, errorf(fc.Pos, "file-budget", "dataset %q: file clause expands past the budget of %d files per descriptor", n.Name, maxFiles)
	}
	out := make([]FileInstance, 0, count)
	err := each(0, func() error {
		inst, err := instantiate(st, n, fc, env)
		out = append(out, inst)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func instantiate(st *Storage, n *DatasetNode, fc *FileClause, env Env) (FileInstance, error) {
	dirIdx, err := fc.Dir.Eval(env)
	if err != nil {
		return FileInstance{}, errorf(fc.Pos, "file-clause", "dataset %q: directory expression: %v", n.Name, err)
	}
	if dirIdx < 0 || dirIdx >= int64(len(st.Dirs)) {
		return FileInstance{}, errorf(fc.Pos, "dir-range", "dataset %q: DIR[%d] out of range (storage declares %d directories)", n.Name, dirIdx, len(st.Dirs))
	}
	var b strings.Builder
	for _, p := range fc.Name {
		if p.Var == "" {
			b.WriteString(p.Lit)
			continue
		}
		v, ok := env[p.Var]
		if !ok {
			return FileInstance{}, errorf(fc.Pos, "file-clause", "dataset %q: file name uses unbound variable $%s", n.Name, p.Var)
		}
		b.WriteString(strconv.FormatInt(v, 10))
	}
	frozen := make(Env, len(env))
	for k, v := range env {
		frozen[k] = v
	}
	return FileInstance{Clause: fc, DirIndex: int(dirIdx), Dir: st.Dirs[dirIdx], Name: b.String(), Env: frozen}, nil
}

// expandClauses expands a leaf's DATA or INDEXFILE clauses within one
// budget.
func expandClauses(st *Storage, n *DatasetNode, clauses []FileClause) ([]FileInstance, error) {
	var out []FileInstance
	for i := range clauses {
		fis, err := expandClause(st, n, &clauses[i], maxFiles-len(out))
		if err != nil {
			return nil, err
		}
		out = append(out, fis...)
	}
	return out, nil
}

// ExpandLeaf enumerates all data files of a leaf dataset, across all of
// its DATA clauses. A leaf of more than maxFiles files fails with a
// file-budget *Error, whether or not the descriptor was validated.
func ExpandLeaf(st *Storage, n *DatasetNode) ([]FileInstance, error) {
	if !n.IsLeaf() {
		return nil, fmt.Errorf("metadata: ExpandLeaf on non-leaf dataset %q", n.Name)
	}
	return expandClauses(st, n, n.Files)
}

// ExpandIndexFiles enumerates the index files of a chunked leaf and
// pairs each data file with its index file. It returns a map from
// data-file position (index into the files slice) to index FileInstance.
func ExpandIndexFiles(st *Storage, n *DatasetNode, files []FileInstance) (map[int]FileInstance, error) {
	idx, err := expandClauses(st, n, n.IndexFiles)
	if err != nil {
		return nil, err
	}
	return pairIndexFiles(n, files, idx)
}

// pairIndexFiles pairs each data file with the one index file whose
// binding environment agrees with the data file's on every variable
// both bind. Index files are bucketed by the values of those shared
// variables, once per (data clause, index clause) pair, so pairing is
// linear in the number of files.
func pairIndexFiles(n *DatasetNode, files, idx []FileInstance) (map[int]FileInstance, error) {
	type bucket struct {
		shared []string
		byKey  map[string][]int
	}
	buckets := map[[2]*FileClause]*bucket{}
	bucketOf := func(dc, ic *FileClause) *bucket {
		if bk := buckets[[2]*FileClause{dc, ic}]; bk != nil {
			return bk
		}
		bk := &bucket{byKey: map[string][]int{}}
		for _, b := range dc.Bindings {
			for _, ib := range ic.Bindings {
				if b.Var == ib.Var {
					bk.shared = append(bk.shared, b.Var)
					break
				}
			}
		}
		for i, ix := range idx {
			if ix.Clause == ic {
				key := envKey(ix.Env, bk.shared)
				bk.byKey[key] = append(bk.byKey[key], i)
			}
		}
		buckets[[2]*FileClause{dc, ic}] = bk
		return bk
	}
	out := make(map[int]FileInstance, len(files))
	for fi, f := range files {
		matches := 0
		for ic := range n.IndexFiles {
			bk := bucketOf(f.Clause, &n.IndexFiles[ic])
			if m := bk.byKey[envKey(f.Env, bk.shared)]; len(m) > 0 {
				out[fi] = idx[m[0]]
				matches += len(m)
			}
		}
		switch {
		case matches == 0:
			return nil, errorf(f.Clause.Pos, "index-pair", "dataset %q: no index file matches data file %s", n.Name, f)
		case matches > 1:
			return nil, errorf(f.Clause.Pos, "index-pair", "dataset %q: %d index files match data file %s", n.Name, matches, f)
		}
	}
	return out, nil
}

// envKey renders env's values of vars as a map key: two environments
// agree on vars exactly when their keys are equal.
func envKey(env Env, vars []string) string {
	var b []byte
	for _, v := range vars {
		b = strconv.AppendInt(b, env[v], 10)
		b = append(b, ',')
	}
	return string(b)
}
