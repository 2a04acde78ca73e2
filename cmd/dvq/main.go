// Command dvq runs a SQL query against a virtualized dataset: it loads
// a meta-data descriptor, compiles the data service, executes the query
// over the flat files under the data root, and prints the resulting
// virtual-table rows. With -nodes it becomes a cluster client instead,
// submitting the query to the named node servers through a coordinator.
//
// Usage:
//
//	dvq -desc dataset.dvd -root /data "SELECT * FROM IparsData WHERE TIME > 1000"
//	dvq -desc dataset.dvd -nodes node0=127.0.0.1:7070,node1=127.0.0.1:7071 \
//	    -stats -timeout 30s "SELECT * FROM IparsData WHERE TIME > 1000"
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

	"datavirt/internal/cache"
	"datavirt/internal/cluster"
	"datavirt/internal/core"
	"datavirt/internal/metadata"
	"datavirt/internal/table"
)

// config carries the execution flags through both query paths.
type config struct {
	workers int
	quiet   bool
	header  bool
	explain bool
	stats   bool
	timeout time.Duration

	cacheMB    int
	cacheBlock int
	noCache    bool
	noSparse   bool

	legStall time.Duration
	stageMB  int
}

// cacheConfig translates the cache flags into a cache.Config.
func (c config) cacheConfig() cache.Config {
	return cache.Config{
		MaxBytes:   int64(c.cacheMB) << 20,
		BlockBytes: c.cacheBlock,
		Disabled:   c.cacheMB == 0,
	}
}

func main() {
	desc := flag.String("desc", "", "path to the meta-data descriptor")
	root := flag.String("root", ".", "data root directory (holds <node>/<dir>/<file>)")
	nodes := flag.String("nodes", "", "run distributed: comma-separated node address table name=host:port,...")
	var cfg config
	flag.IntVar(&cfg.workers, "workers", 0, "aggregate fold pool size (0 = automatic)")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress rows; print only the summary")
	flag.BoolVar(&cfg.header, "header", true, "print a column header line")
	flag.BoolVar(&cfg.explain, "explain", false, "print the query plan (ranges and aligned file chunks) instead of rows")
	flag.BoolVar(&cfg.stats, "stats", false, "print per-stage query statistics after the summary")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "cancel the query after this duration (0 = none)")
	flag.IntVar(&cfg.cacheMB, "cache-mb", 64, "block cache budget in MiB (0 disables block caching; handles stay pooled)")
	flag.IntVar(&cfg.cacheBlock, "cache-block", 256<<10, "block cache block size in bytes")
	flag.BoolVar(&cfg.noCache, "no-cache", false, "bypass the block cache for this query")
	flag.BoolVar(&cfg.noSparse, "no-sparse", false, "ignore sparse block-index sidecars (no data skipping)")
	flag.DurationVar(&cfg.legStall, "stall", 0, "with -nodes: fail a node leg whose stream makes no frame progress within this duration and re-dispatch it (0 = off)")
	flag.IntVar(&cfg.stageMB, "failover-stage-mb", 0, "with -nodes: MiB of a replicated leg's results to withhold for exactly-once failover replay (0 = default 8)")
	interactive := flag.Bool("i", false, "interactive mode: read queries from stdin, one per line")
	flag.Parse()

	if *desc == "" || (flag.NArg() != 1 && !*interactive) {
		fmt.Fprintln(os.Stderr, "usage: dvq -desc FILE [-root DIR | -nodes NAME=ADDR,...] [flags] \"SELECT ...\"   or   dvq -desc FILE -i")
		flag.PrintDefaults()
		os.Exit(2)
	}

	// Ctrl-C cancels the in-flight query instead of killing the process
	// mid-write; a second interrupt terminates as usual.
	baseCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *nodes != "" {
		if *interactive {
			fatal(fmt.Errorf("-i is not supported with -nodes"))
		}
		runCluster(baseCtx, *desc, *nodes, flag.Arg(0), cfg)
		return
	}

	svc, err := core.Open(*desc, *root)
	if err != nil {
		fatal(err)
	}
	svc.SetCacheConfig(cfg.cacheConfig())
	defer svc.Close()

	if *interactive {
		fmt.Fprintf(os.Stderr, "dvq: table %s (%s); enter SQL, one statement per line (ctrl-D to quit)\n",
			svc.TableName(), strings.Join(svc.Schema().Names(), ", "))
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for {
			fmt.Fprint(os.Stderr, "dvq> ")
			if !sc.Scan() {
				fmt.Fprintln(os.Stderr)
				return
			}
			sql := strings.TrimSpace(sc.Text())
			if sql == "" {
				continue
			}
			if sql == "quit" || sql == "exit" || sql == `\q` {
				return
			}
			if err := runLocal(baseCtx, svc, sql, cfg); err != nil {
				fmt.Fprintln(os.Stderr, "dvq:", err)
			}
		}
	}

	if err := runLocal(baseCtx, svc, flag.Arg(0), cfg); err != nil {
		fatal(err)
	}
}

// queryCtx derives the per-query context from the timeout flag.
func queryCtx(ctx context.Context, cfg config) (context.Context, context.CancelFunc) {
	if cfg.timeout > 0 {
		return context.WithTimeout(ctx, cfg.timeout)
	}
	return context.WithCancel(ctx)
}

// runLocal executes (or explains) one query against local files using
// the streaming Rows API.
func runLocal(ctx context.Context, svc *core.Service, sql string, cfg config) error {
	ctx, cancel := queryCtx(ctx, cfg)
	defer cancel()

	prep, err := svc.PrepareContext(ctx, sql)
	if err != nil {
		return err
	}
	if cfg.explain {
		fmt.Printf("table: %s\ncolumns: %s\nranges: %s\naligned file chunks: %d\n",
			svc.TableName(), strings.Join(prep.Cols, ", "), prep.Ranges, len(prep.AFCs))
		limit := 20
		for i := range prep.AFCs {
			if i >= limit {
				fmt.Printf("... %d more\n", len(prep.AFCs)-limit)
				break
			}
			fmt.Println("  " + prep.AFCs[i].String())
		}
		return nil
	}

	out := bufio.NewWriterSize(os.Stdout, 1<<16)
	defer out.Flush()
	if cfg.header && !cfg.quiet {
		fmt.Fprintln(out, strings.Join(prep.Cols, "\t"))
	}
	start := time.Now()
	rows, err := prep.QueryContext(ctx, core.Options{
		Workers: cfg.workers, NoCache: cfg.noCache, NoSparse: cfg.noSparse,
	})
	if err != nil {
		return err
	}
	defer rows.Close()
	var n int64
	for rows.Next() {
		n++
		if cfg.quiet {
			continue
		}
		if _, err := fmt.Fprintln(out, table.FormatRow(rows.Row())); err != nil {
			return err
		}
	}
	if err := rows.Err(); err != nil {
		return err
	}
	rows.Close()
	out.Flush()
	st := rows.Stats()
	fmt.Fprintf(os.Stderr, "%d rows in %s (scanned %d rows, read %.1f MB, %d aligned file chunks)\n",
		n, time.Since(start).Round(time.Millisecond),
		st.RowsScanned, float64(st.BytesRead)/1e6, st.ChunksRead)
	if cfg.stats {
		fmt.Fprintln(os.Stderr, indent(st.String()))
	}
	return nil
}

// runCluster submits the query to the node servers through a
// coordinator and prints the merged stream.
func runCluster(ctx context.Context, descPath, nodeTable, sql string, cfg config) {
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		fatal(err)
	}
	addrs := map[string]string{}
	for _, pair := range strings.Split(nodeTable, ",") {
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
	coord.LegStallAfter = cfg.legStall
	coord.FailoverStageBytes = int64(cfg.stageMB) << 20
	defer coord.Close()

	ctx, cancel := queryCtx(ctx, cfg)
	defer cancel()
	out := bufio.NewWriterSize(os.Stdout, 1<<16)
	defer out.Flush()
	if cfg.explain {
		fatal(fmt.Errorf("-explain is not supported with -nodes; run without -nodes against local files"))
	}

	start := time.Now()
	rows, err := coord.QueryContext(ctx, sql)
	if err != nil {
		fatal(err)
	}
	defer rows.Close()
	if cfg.header && !cfg.quiet {
		fmt.Fprintln(out, strings.Join(rows.Columns(), "\t"))
	}
	var n int64
	for rows.Next() {
		n++
		if cfg.quiet {
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
	st := rows.Stats()
	fmt.Fprintf(os.Stderr, "%d rows in %s from %d nodes\n",
		n, time.Since(start).Round(time.Millisecond), len(coord.Nodes()))
	if cfg.stats {
		fmt.Fprintln(os.Stderr, indent(st.String()))
	}
}

// indent prefixes every line for the stderr stats block.
func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dvq:", err)
	os.Exit(1)
}
