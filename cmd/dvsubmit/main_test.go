package main

import (
	"strings"
	"testing"
)

// TestPartitionSpecRejectsDestCounts: a destination count outside
// 1..1024 is an error from the flag parsing, so main never sizes its
// sinks by it (a negative count would panic in make, a huge one would
// allocate before the nodes refused the spec).
func TestPartitionSpecRejectsDestCounts(t *testing.T) {
	for _, dests := range []int{-1, 0, 1025, 2000} {
		if _, err := partitionSpec("roundrobin", dests, "", ""); err == nil || !strings.Contains(err.Error(), "destination") {
			t.Errorf("-dests %d: err = %v", dests, err)
		}
	}
	for _, c := range []struct {
		scheme, attr, bounds string
		dests                int
	}{
		{"roundrobin", "", "", 1},
		{"hash", "TIME", "", 1024},
		{"range", "TIME", "10,20", 3},
	} {
		spec, err := partitionSpec(c.scheme, c.dests, c.attr, c.bounds)
		if err != nil || spec.NumDests != c.dests {
			t.Errorf("%s -dests %d: %+v, %v", c.scheme, c.dests, spec, err)
		}
	}
	for _, bad := range [][2]string{{"range", "20,10"}, {"range", "x"}, {"scatter", ""}} {
		if _, err := partitionSpec(bad[0], 3, "TIME", bad[1]); err == nil {
			t.Errorf("-partition %s -bounds %q accepted", bad[0], bad[1])
		}
	}
}
