// Oil reservoir management: the paper's first motivating application
// (§2.2). A study simulates many geostatistical realizations of a
// reservoir; analysis queries subset the terabyte-scale output by
// realization, time window and physical criteria — e.g. "find the
// largest bypassed oil regions between time T1 and T2 in realization A".
//
// Bypassed oil: cells that still hold substantial oil (high SOIL) but
// are barely flowing (low |oil velocity|) — produced here with the
// paper's example-query style:
//
//	SELECT * FROM IparsData
//	WHERE REL IN (...) AND TIME >= T1 AND TIME <= T2
//	  AND SOIL >= 0.7 AND SPEED(OILVX, OILVY, OILVZ) <= 30.0
//
// The program generates a study, runs the bypassed-oil query per
// realization, and reports which realization has the largest connected
// bypassed region (greedy 3-D flood fill over returned cells).
//
// Run with:
//
//	go run ./examples/oilreservoir
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/table"
)

type cell struct{ x, y, z int }

func main() {
	ctx := context.Background()
	root, err := os.MkdirTemp("", "datavirt-oil")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	spec := gen.IparsSpec{
		Realizations: 4, TimeSteps: 100, GridPoints: 1000, Partitions: 4,
		Attrs: 17, Seed: 42,
	}
	descPath, err := gen.WriteIpars(root, spec, "CLUSTER")
	if err != nil {
		log.Fatal(err)
	}
	svc, err := core.Open(descPath, root)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("study: %d realizations x %d time steps x %d cells (%d variables each)\n\n",
		spec.Realizations, spec.TimeSteps, spec.GridPoints, spec.Attrs)

	const t1, t2 = 40, 60
	bestRel, bestSize := -1, 0
	for rel := 0; rel < spec.Realizations; rel++ {
		sql := fmt.Sprintf(
			"SELECT X, Y, Z FROM IparsData WHERE REL = %d AND TIME >= %d AND TIME <= %d "+
				"AND SOIL >= 0.7 AND SPEED(OILVX, OILVY, OILVZ) <= 12.0", rel, t1, t2)
		prep, err := svc.PrepareContext(ctx, sql)
		if err != nil {
			log.Fatal(err)
		}
		// A cell is "bypassed" if it satisfies the criteria at any step
		// in the window; collect the distinct cells.
		cells := map[cell]bool{}
		if _, err := prep.RunContext(ctx, core.Options{Parallel: true}, func(row table.Row) error {
			cells[cell{int(row[0].AsFloat()), int(row[1].AsFloat()), int(row[2].AsFloat())}] = true
			return nil
		}); err != nil {
			log.Fatal(err)
		}
		size := largestRegion(cells)
		fmt.Printf("realization %d: %4d bypassed cells, largest connected region %4d\n",
			rel, len(cells), size)
		if size > bestSize {
			bestRel, bestSize = rel, size
		}
	}
	fmt.Printf("\nlargest bypassed oil region between T%d and T%d: realization %d (%d cells)\n",
		t1, t2, bestRel, bestSize)
}

// largestRegion finds the biggest 6-connected component.
func largestRegion(cells map[cell]bool) int {
	seen := map[cell]bool{}
	best := 0
	var stack []cell
	for c := range cells {
		if seen[c] {
			continue
		}
		size := 0
		stack = append(stack[:0], c)
		seen[c] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, d := range []cell{
				{cur.x + 1, cur.y, cur.z}, {cur.x - 1, cur.y, cur.z},
				{cur.x, cur.y + 1, cur.z}, {cur.x, cur.y - 1, cur.z},
				{cur.x, cur.y, cur.z + 1}, {cur.x, cur.y, cur.z - 1},
			} {
				if cells[d] && !seen[d] {
					seen[d] = true
					stack = append(stack, d)
				}
			}
		}
		if size > best {
			best = size
		}
	}
	return best
}
