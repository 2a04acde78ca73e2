package cache

// Block-slicing math, factored out of the reader so the fuzz suite
// (slicing_fuzz_test.go) can check it against a naive oracle. The
// reader partitions a file into aligned cache blocks of
// Config.BlockBytes and needs two answers: which block holds a byte,
// and whether a span stays inside one block (so ViewAt can serve it).

// chunkAt returns the index of the fixed-size chunk containing pos and
// the offset of pos within that chunk. pos must be non-negative and
// size positive.
func chunkAt(pos, size int64) (idx, off int64) {
	idx = pos / size
	return idx, pos - idx*size
}

// crossesChunk reports whether the span [off, off+n) straddles a chunk
// boundary of the given chunk size — the condition under which a
// single zero-copy view cannot serve it. Spans are never considered
// in-chunk when they would overflow int64 arithmetic.
func crossesChunk(off, n, size int64) bool {
	if n <= 0 {
		return false
	}
	_, coff := chunkAt(off, size)
	if coff > size-n { // written to avoid coff+n overflow
		return true
	}
	return false
}
