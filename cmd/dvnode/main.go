// Command dvnode runs one STORM node server: it owns the files whose
// storage directories name this node and answers query requests from a
// coordinator (dvsubmit) over TCP.
//
// Usage:
//
//	dvnode -desc dataset.dvd -root /data -node node0 -addr 127.0.0.1:7070
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"datavirt/internal/cache"
	"datavirt/internal/cluster"
	"datavirt/internal/core"
	"datavirt/internal/obs"
)

func main() {
	desc := flag.String("desc", "", "path to the meta-data descriptor")
	root := flag.String("root", ".", "data root directory")
	nodeName := flag.String("node", "", "cluster node name served (must appear in the descriptor's DIR table)")
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	slow := flag.Duration("slow", 0, "log query stages slower than this threshold (0 = disabled)")
	trace := flag.Bool("trace", false, "log every query stage (implies -slow 0s for all stages)")
	cacheMB := flag.Int("cache-mb", 64, "block cache budget in MiB (0 disables block caching; handles stay pooled)")
	cacheBlock := flag.Int("cache-block", 256<<10, "block cache block size in bytes")
	maxConcurrent := flag.Int("max-concurrent", 0, "queries executing at once across all sessions (0 = 2x GOMAXPROCS, at least 4)")
	maxQueue := flag.Int("max-queue", 0, "admission queue depth beyond which arrivals are shed busy (0 = 64, negative = no queue)")
	flag.Parse()

	if *desc == "" || *nodeName == "" {
		fmt.Fprintln(os.Stderr, "usage: dvnode -desc FILE -node NAME [-root DIR] [-addr HOST:PORT]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	svc, err := core.Open(*desc, *root)
	if err != nil {
		fatal(err)
	}
	// AllNodes, not Nodes: a replica-only standby never owns a DIR
	// entry but is still a legitimate server for the partitions whose
	// NODES sets list it.
	known := false
	for _, n := range svc.AllNodes() {
		if n == *nodeName {
			known = true
		}
	}
	if !known {
		fatal(fmt.Errorf("node %q is not in the descriptor's storage table %v", *nodeName, svc.AllNodes()))
	}
	svc.SetCacheConfig(cache.Config{
		MaxBytes:   int64(*cacheMB) << 20,
		BlockBytes: *cacheBlock,
		Disabled:   *cacheMB == 0,
	})
	node, err := cluster.StartNode(context.Background(), *nodeName, svc, *addr)
	if err != nil {
		fatal(err)
	}
	node.MaxConcurrent = *maxConcurrent
	node.MaxQueue = *maxQueue
	if *trace || *slow > 0 {
		threshold := *slow
		if *trace {
			threshold = 0
		}
		node.Tracer = &obs.LogTracer{Logf: log.Printf, Slow: threshold}
	}
	fmt.Printf("dvnode: serving %s (%s) on %s\n", *nodeName, svc.TableName(), node.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("dvnode: shutting down")
	if err := node.Close(); err != nil {
		fatal(err)
	}
	cs := svc.CacheStats()
	if cs.Hits+cs.Misses > 0 {
		fmt.Printf("dvnode: cache %d hits / %d misses, %d evictions, %.1f MB read, %.1f MB saved\n",
			cs.Hits, cs.Misses, cs.Evictions, float64(cs.BytesRead)/1e6, float64(cs.BytesSaved())/1e6)
	}
	if q, shed := node.AdmissionCounters(); q+shed > 0 {
		fmt.Printf("dvnode: admission %d queries queued, %d shed\n", q, shed)
	}
	svc.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dvnode:", err)
	os.Exit(1)
}
