// Satellite data processing: the paper's second motivating application
// (§2.2). Sensor readings are chunked over space-time with a spatial
// index; a typical analysis selects a rectangular region and a time
// period, then builds a composite image where "each pixel ... is
// computed by selecting the 'best' sensor value that maps to the
// associated grid point".
//
// The program generates a Titan dataset, queries a space-time window
// through the virtualization layer, composites the maximum S1 reading
// per pixel, and renders the result as ASCII art.
//
// Run with:
//
//	go run ./examples/satellite
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

func main() {
	ctx := context.Background()
	root, err := os.MkdirTemp("", "datavirt-satellite")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	spec := gen.TitanSpec{
		Points: 400_000, XMax: 20000, YMax: 20000, ZMax: 200,
		TilesX: 16, TilesY: 16, TilesZ: 8, Nodes: 1, Seed: 7,
	}
	descPath, err := gen.WriteTitan(root, spec)
	if err != nil {
		log.Fatal(err)
	}
	svc, err := core.Open(descPath, root)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d sensor readings, chunked %dx%dx%d with an R-tree index\n\n",
		spec.Points, spec.TilesX, spec.TilesY, spec.TilesZ)

	// A region and a time period, as in the paper's query pattern.
	const x0, x1, y0, y1, t0, t1 = 2000, 12000, 2000, 12000, 50, 150
	sql := fmt.Sprintf(
		"SELECT X, Y, S1 FROM TitanData WHERE X >= %d AND X <= %d AND Y >= %d AND Y <= %d AND Z >= %d AND Z <= %d",
		x0, x1, y0, y1, t0, t1)
	prep, err := svc.PrepareContext(ctx, sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("> %s\n", sql)
	fmt.Printf("spatial index selected %d of the dataset's chunks\n\n", len(prep.AFCs))

	// Composite: project onto a W x H pixel grid, keep the best (max)
	// S1 per pixel.
	const W, H = 64, 32
	img := make([][]float64, H)
	for i := range img {
		img[i] = make([]float64, W)
		for j := range img[i] {
			img[i][j] = -1
		}
	}
	var rows int64
	if _, err := prep.RunContext(ctx, core.Options{}, func(r table.Row) error {
		x, y, s1 := r[0].AsFloat(), r[1].AsFloat(), r[2].AsFloat()
		px := int((x - x0) * (W - 1) / (x1 - x0))
		py := int((y - y0) * (H - 1) / (y1 - y0))
		if s1 > img[py][px] {
			img[py][px] = s1
		}
		rows++
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("composited %d readings into a %dx%d image (max S1 per pixel):\n\n", rows, W, H)

	shades := []byte(" .:-=+*#%@")
	for _, line := range img {
		buf := make([]byte, W)
		for j, v := range line {
			if v < 0 {
				buf[j] = ' '
				continue
			}
			k := int(v * float64(len(shades)-1))
			if k >= len(shades) {
				k = len(shades) - 1
			}
			buf[j] = shades[k]
		}
		fmt.Println(string(buf))
	}
}
