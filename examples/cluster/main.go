// Distributed execution: the deployment the paper evaluates — a dataset
// declustered across the nodes of a cluster, one STORM node server per
// node, and a remote client that submits SQL and receives the selected
// tuples, partitioned among its processors by the server-side partition
// generation service.
//
// The program simulates a 4-node cluster in one process (four TCP node
// servers on loopback), runs a remote query (the paper's Ipars Query 5
// class, "accessing the data from a remote client"), and then a
// partitioned query delivering tuples to two simulated client
// processors by hash of TIME.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"datavirt/internal/cluster"
	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/metadata"
	"datavirt/internal/storm"
)

func main() {
	root, err := os.MkdirTemp("", "datavirt-cluster")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	// Decluster the study across 4 nodes (Figure 4's physical layout).
	spec := gen.IparsSpec{
		Realizations: 2, TimeSteps: 100, GridPoints: 800, Partitions: 4,
		Attrs: 17, Seed: 3,
	}
	descPath, err := gen.WriteIpars(root, spec, "CLUSTER")
	if err != nil {
		log.Fatal(err)
	}
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		log.Fatal(err)
	}

	// One node server per cluster node.
	addrs := map[string]string{}
	for i := 0; i < spec.Partitions; i++ {
		svc, err := core.Open(descPath, root)
		if err != nil {
			log.Fatal(err)
		}
		name := fmt.Sprintf("node%d", i)
		node, err := cluster.StartNode(context.Background(), name, svc, "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		addrs[name] = node.Addr()
		fmt.Printf("started node server %s on %s\n", name, node.Addr())
	}

	// The remote client: a coordinator that keeps a pool of idle node
	// connections, one query per connection. Close releases them.
	coord, err := cluster.NewCoordinator(d, addrs)
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	// Remote queries carry a context: the deadline is forwarded to every
	// node server, which aborts its extraction if the client gives up.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sql := "SELECT * FROM IparsData WHERE TIME > 50 AND TIME < 55"
	fmt.Printf("\n> %s\n", sql)
	// The same streaming-cursor API as local execution (core.Service).
	res, err := coord.QueryContext(ctx, sql)
	if err != nil {
		log.Fatal(err)
	}
	var rows int64
	for res.Next() {
		rows++
	}
	if err := res.Err(); err != nil {
		log.Fatal(err)
	}
	res.Close()
	st := res.Stats()
	fmt.Printf("received %d tuples from %d nodes\n", rows, len(coord.Nodes()))
	fmt.Printf("cluster-wide extraction stats: scanned %d rows, read %.1f MB\n",
		st.RowsScanned, float64(st.BytesRead)/1e6)
	fmt.Printf("per-stage times: plan %s, index %s, extract %s (slowest node), net %s\n",
		st.PlanTime.Round(10e3), st.IndexTime.Round(10e3),
		st.ExtractTime.Round(10e3), st.NetTime.Round(10e3))

	// Partitioned delivery: the client program runs on two processors;
	// the nodes tag each tuple with its destination (partition
	// generation at the server), the data mover routes it.
	fmt.Printf("\n> same query, hash-partitioned on TIME across 2 client processors\n")
	sinks := []storm.Sink{&storm.SliceSink{}, &storm.SliceSink{}}
	if _, err := coord.QueryPartitionedContext(ctx, sql, storm.PartitionSpec{
		Scheme: storm.HashAttr, NumDests: 2, Attr: "TIME",
	}, sinks); err != nil {
		log.Fatal(err)
	}
	for i, s := range sinks {
		got := s.(*storm.SliceSink).Rows
		times := map[int64]bool{}
		for _, r := range got {
			times[r[1].AsInt()] = true
		}
		var ts []int64
		for t := range times {
			ts = append(ts, t)
		}
		fmt.Printf("processor %d: %5d tuples, TIME values %v\n", i, len(got), ts)
	}
}
