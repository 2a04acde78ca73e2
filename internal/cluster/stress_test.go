package cluster

import (
	"context"
	"sync"
	"testing"

	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/metadata"
)

// TestConcurrentQueries hammers one cluster with parallel clients; each
// must see a complete, private result stream.
func TestConcurrentQueries(t *testing.T) {
	coord, s := startCluster(t, defaultSpec())
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	counts := make([]int64, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rows, _, err := coord.CollectQueryContext(context.Background(), "SELECT TIME, SOIL FROM IparsData WHERE REL = 0")
			errs[c] = err
			counts[c] = int64(len(rows))
		}(c)
	}
	wg.Wait()
	want := s.IparsTotalRows() / int64(s.Realizations)
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		if counts[c] != want {
			t.Errorf("client %d: %d rows, want %d", c, counts[c], want)
		}
	}
}

// TestLargeStreamCrossesBatches uses a dataset big enough that every
// node sends many row batches; counts must be exact.
func TestLargeStreamCrossesBatches(t *testing.T) {
	spec := gen.IparsSpec{
		Realizations: 1, TimeSteps: 20, GridPoints: 600, Partitions: 2,
		Attrs: 2, Seed: 5,
	}
	coord, _ := startCluster(t, spec)
	// 12000 rows per query >> batchRows (512) per node.
	rows, res, err := coord.CollectQueryContext(context.Background(), "SELECT * FROM IparsData")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rows)) != spec.IparsTotalRows() || res.Rows != spec.IparsTotalRows() {
		t.Errorf("rows = %d / trailer %d, want %d", len(rows), res.Rows, spec.IparsTotalRows())
	}
}

// TestNodeDiesMidStream kills one node server while a large query is
// streaming; the coordinator must report an error, not silently return
// a truncated result.
func TestNodeDiesMidStream(t *testing.T) {
	// Big enough that no node's response fits in TCP socket buffers, so
	// killing the servers mid-stream cannot race with completion.
	spec := gen.IparsSpec{
		Realizations: 2, TimeSteps: 40, GridPoints: 3000, Partitions: 3,
		Attrs: 17, Seed: 6,
	}
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, spec, "CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[string]string{}
	var victims []*Node
	for i := 0; i < spec.Partitions; i++ {
		svc, err := core.Open(descPath, root)
		if err != nil {
			t.Fatal(err)
		}
		name := svc.Nodes()[i]
		node, err := StartNode(context.Background(), name, svc, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node.Logf = func(string, ...any) {}
		t.Cleanup(func() { node.Close() })
		addrs[name] = node.Addr()
		victims = append(victims, node)
	}
	coord, err := NewCoordinator(d, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Kill every node server once the first rows arrive.
	rows, err := coord.QueryContext(context.Background(), "SELECT * FROM IparsData")
	if err != nil {
		t.Fatal(err)
	}
	killed := false
	for rows.Next() {
		if !killed {
			killed = true
			for _, v := range victims {
				v.Close()
			}
		}
	}
	err = rows.Err()
	rows.Close()
	if err == nil {
		t.Error("coordinator returned success despite dead nodes")
	}
}
