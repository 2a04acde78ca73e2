package cache

import (
	"math"
	"math/big"
	"testing"
)

// The block-slicing math (offset/length → block index and intra-block
// range) backs every ReadAt, every memo hit and every ViewAt — a wrong
// answer is silent data corruption. These fuzz targets check it
// against a big-integer oracle that cannot overflow, seeded with the
// block edges the implementation special-cases.

// slicingSeeds are the boundary cases: edges of small blocks, of
// DefaultBlockBytes, and the extremes of int64.
var slicingSeeds = [][2]int64{
	{0, 512}, {511, 512}, {512, 512}, {513, 512},
	{4095, 4096}, {4096, 4096}, {4097, 4096},
	{DefaultBlockBytes - 1, DefaultBlockBytes},
	{DefaultBlockBytes, DefaultBlockBytes},
	{DefaultBlockBytes + 1, DefaultBlockBytes},
	{math.MaxInt64, 1}, {math.MaxInt64, 512}, {math.MaxInt64, math.MaxInt64},
	{1 << 62, 4096}, {0, 1}, {1, 1},
}

func FuzzChunkAt(f *testing.F) {
	for _, s := range slicingSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, pos, size int64) {
		if pos < 0 || size <= 0 {
			t.Skip() // outside chunkAt's contract (callers guard both)
		}
		idx, off := chunkAt(pos, size)
		if off < 0 || off >= size {
			t.Fatalf("chunkAt(%d, %d): off %d out of [0, %d)", pos, size, off, size)
		}
		if idx < 0 {
			t.Fatalf("chunkAt(%d, %d): negative index %d", pos, size, idx)
		}
		// idx*size + off == pos, computed without overflow.
		back := new(big.Int).Mul(big.NewInt(idx), big.NewInt(size))
		back.Add(back, big.NewInt(off))
		if back.Cmp(big.NewInt(pos)) != 0 {
			t.Fatalf("chunkAt(%d, %d) = (%d, %d): reconstructs %s", pos, size, idx, off, back)
		}
	})
}

func FuzzCrossesChunk(f *testing.F) {
	for _, s := range slicingSeeds {
		f.Add(s[0], int64(1), s[1])
		f.Add(s[0], s[1], s[1])
		f.Add(s[0], s[1]+1, s[1])
	}
	f.Fuzz(func(t *testing.T, off, n, size int64) {
		if off < 0 || size <= 0 {
			t.Skip()
		}
		got := crossesChunk(off, n, size)
		if n <= 0 {
			if got {
				t.Fatalf("crossesChunk(%d, %d, %d) = true for an empty span", off, n, size)
			}
			return
		}
		// Oracle: does [off, off+n) extend past the chunk holding off?
		coff := new(big.Int).Mod(big.NewInt(off), big.NewInt(size))
		end := new(big.Int).Add(coff, big.NewInt(n))
		want := end.Cmp(big.NewInt(size)) > 0
		if got != want {
			t.Fatalf("crossesChunk(%d, %d, %d) = %v, oracle says %v", off, n, size, got, want)
		}
	})
}
