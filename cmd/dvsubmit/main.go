// Command dvsubmit is the remote client of the distributed system: it
// submits a SQL query to the node servers of a cluster, merges the
// returned tuple streams, and optionally partitions tuples among
// simulated client processors (the paper's partition generation and
// data mover services).
//
// Usage:
//
//	dvsubmit -desc dataset.dvd -nodes node0=127.0.0.1:7070,node1=127.0.0.1:7071 \
//	         "SELECT * FROM IparsData WHERE TIME > 1000"
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"datavirt/internal/cluster"
	"datavirt/internal/metadata"
	"datavirt/internal/storm"
	"datavirt/internal/table"
)

func main() {
	desc := flag.String("desc", "", "path to the meta-data descriptor")
	nodes := flag.String("nodes", "", "comma-separated node address table: name=host:port,...")
	quiet := flag.Bool("quiet", false, "suppress rows; print only the summary")
	scheme := flag.String("partition", "", "client partition scheme: roundrobin, hash, or range")
	dests := flag.Int("dests", 1, "number of client processors")
	attr := flag.String("attr", "", "partitioning attribute (hash/range)")
	bounds := flag.String("bounds", "", "comma-separated range boundaries (range)")
	stats := flag.Bool("stats", false, "print per-stage query statistics after the summary")
	timeout := flag.Duration("timeout", 0, "cancel the query after this duration (0 = none)")
	stall := flag.Duration("stall", 0, "fail a node leg whose stream makes no frame progress within this duration and re-dispatch it (0 = off)")
	flag.Parse()

	if *desc == "" || *nodes == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dvsubmit -desc FILE -nodes NAME=ADDR,... [flags] \"SELECT ...\"")
		flag.PrintDefaults()
		os.Exit(2)
	}
	sql := flag.Arg(0)

	d, err := metadata.ParseFile(*desc)
	if err != nil {
		fatal(err)
	}
	addrs := map[string]string{}
	for _, pair := range strings.Split(*nodes, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			fatal(fmt.Errorf("bad -nodes entry %q", pair))
		}
		addrs[name] = addr
	}
	coord, err := cluster.NewCoordinator(d, addrs)
	if err != nil {
		fatal(err)
	}
	coord.LegStallAfter = *stall
	defer coord.Close()

	// Ctrl-C cancels the in-flight query; -timeout bounds it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	out := bufio.NewWriterSize(os.Stdout, 1<<16)
	defer out.Flush()

	if *scheme == "" {
		rows, err := coord.QueryContext(ctx, sql)
		if err != nil {
			fatal(err)
		}
		defer rows.Close()
		var n int64
		for rows.Next() {
			n++
			if *quiet {
				continue
			}
			if _, err := fmt.Fprintln(out, table.FormatRow(rows.Row())); err != nil {
				fatal(err)
			}
		}
		if err := rows.Err(); err != nil {
			fatal(err)
		}
		rows.Close()
		out.Flush()
		fmt.Fprintf(os.Stderr, "%d rows in %s from %d nodes\n",
			n, time.Since(start).Round(time.Millisecond), len(coord.Nodes()))
		if *stats {
			fmt.Fprintln(os.Stderr, "  "+strings.ReplaceAll(rows.Stats().String(), "\n", "\n  "))
		}
		return
	}

	spec, err := partitionSpec(*scheme, *dests, *attr, *bounds)
	if err != nil {
		fatal(err)
	}
	sinks := make([]storm.Sink, *dests)
	counts := make([]int64, *dests)
	for i := range sinks {
		i := i
		sinks[i] = storm.FuncSink(func(r table.Row) error {
			counts[i]++
			if *quiet {
				return nil
			}
			_, err := fmt.Fprintf(out, "dest%d\t%s\n", i, table.FormatRow(r))
			return err
		})
	}
	res, err := coord.QueryPartitionedContext(ctx, sql, spec, sinks)
	if err != nil {
		fatal(err)
	}
	out.Flush()
	fmt.Fprintf(os.Stderr, "%d rows in %s; per destination: %v; per node: %v\n",
		res.Rows, time.Since(start).Round(time.Millisecond), counts, res.PerNode)
}

// partitionSpec builds and validates the partition spec the flags
// describe, before anything is sized by the destination count.
func partitionSpec(scheme string, dests int, attr, bounds string) (storm.PartitionSpec, error) {
	spec := storm.PartitionSpec{NumDests: dests, Attr: attr}
	switch scheme {
	case "roundrobin":
		spec.Scheme = storm.RoundRobin
	case "hash":
		spec.Scheme = storm.HashAttr
	case "range":
		spec.Scheme = storm.RangeAttr
		for _, b := range strings.Split(bounds, ",") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSpace(b), "%g", &v); err != nil {
				return spec, fmt.Errorf("bad -bounds entry %q", b)
			}
			spec.Bounds = append(spec.Bounds, v)
		}
	default:
		return spec, fmt.Errorf("unknown partition scheme %q", scheme)
	}
	return spec, spec.Validate()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dvsubmit:", err)
	os.Exit(1)
}
