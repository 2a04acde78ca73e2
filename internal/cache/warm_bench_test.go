package cache_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"datavirt/internal/cache"
)

// BenchmarkWarmReads measures the warm (fully cached) serve path of
// both backends: tiny reads sweeping a file that is entirely resident,
// the hit path behind the benchmark module's cache.warm_mb_s.
func BenchmarkWarmReads(b *testing.B) {
	dir := b.TempDir()
	const size = 4 << 20
	want := make([]byte, size)
	rand.New(rand.NewSource(42)).Read(want)
	path := filepath.Join(dir, "data")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		b.Fatal(err)
	}
	for _, backend := range []string{cache.BackendPread, cache.BackendMmap} {
		for _, rd := range []int{128, 4096} {
			b.Run(fmt.Sprintf("%s/read%d", backend, rd), func(b *testing.B) {
				c := cache.New(cache.Config{BlockBytes: 256 << 10, Backend: backend})
				defer c.Close()
				r, err := c.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				defer r.Release()
				buf := make([]byte, rd)
				for off := int64(0); off < size; off += int64(rd) { // populate
					r.ReadAt(buf, off) //nolint:errcheck
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					off := (int64(i) * int64(rd)) % (size - int64(rd))
					if _, err := r.ReadAt(buf, off); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
