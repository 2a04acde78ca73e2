package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/handwritten"
	"datavirt/internal/table"
)

// fig10Spec sizes the fixed Ipars study that is re-partitioned across
// 1..8 data-source nodes (the paper used 1.3 GB on up to 16 nodes).
func fig10Spec(cfg Config, partitions int) gen.IparsSpec {
	return gen.IparsSpec{
		Realizations: 2,
		TimeSteps:    cfg.scaleInt(64, 8, 2),
		GridPoints:   cfg.scaleInt(4800, 64, 16),
		Partitions:   partitions,
		Attrs:        17,
		Seed:         604,
	}
}

// fig10Nodes lists the evaluated node counts.
func fig10Nodes() []int { return []int{1, 2, 4, 8} }

// nodeTimes measures each node's leg of the query in isolation (one
// after another, so timings on machines with few CPUs are not polluted
// by scheduler interleaving). On a real cluster the nodes run
// simultaneously on separate machines, so the maximum per-node time is
// the cluster's execution time; the sum is the single-machine total.
func nodeTimes(n int, work func(node int) (int64, error)) (total time.Duration, maxNode time.Duration, rows int64, err error) {
	for i := 0; i < n; i++ {
		s := time.Now()
		count, err := work(i)
		d := time.Since(s)
		if err != nil {
			return 0, 0, 0, err
		}
		rows += count
		total += d
		if d > maxNode {
			maxNode = d
		}
	}
	return total, maxNode, rows, nil
}

// RunFig10 reproduces Figure 10: execution time of a fixed query as the
// number of data-source nodes grows, hand-written vs generated code.
func RunFig10(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "fig10",
		Title: "Scalability with data-source nodes (fixed dataset, hand vs generated)",
		Header: []string{"nodes", "hand_total_ms", "gen_total_ms",
			"hand_pernode_ms", "gen_pernode_ms", "gen/hand", "rows"},
	}
	var refRows int64 = -1
	for _, n := range fig10Nodes() {
		spec := fig10Spec(cfg, n)
		root, err := ensureDir(cfg, "fig10", fmt.Sprintf("n%d", n))
		if err != nil {
			return nil, err
		}
		if !haveMarker(root, "data") {
			cfg.logf("fig10: generating %d-node partitioning", n)
			if _, err := gen.WriteIpars(root, spec, "CLUSTER"); err != nil {
				return nil, err
			}
			if err := setMarker(root, "data"); err != nil {
				return nil, err
			}
		}
		descPath := filepath.Join(root, "ipars_cluster.dvd")
		// The paper's Figure 10 query touches roughly half the study.
		sql := fmt.Sprintf("SELECT * FROM IparsData WHERE TIME > %d", spec.TimeSteps/2)

		// Hand-written: one worker per node scanning its partition.
		var handWall, handNode time.Duration
		var handRows int64
		_, err = timeBest(cfg, func() error {
			w, m, r, err := nodeTimes(n, func(node int) (int64, error) {
				h := &handwritten.IparsCluster{Root: root, Spec: spec, Dirs: []int{node}}
				return h.Query(sql, func(table.Row) error { return nil })
			})
			if err == nil {
				handWall, handNode, handRows = w, m, r
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fig10 n%d hand: %w", n, err)
		}

		// Generated: one worker per node running the compiled service
		// with that node's filter.
		svc, err := core.Open(descPath, root)
		if err != nil {
			return nil, err
		}
		prep, err := prepare(svc, sql)
		if err != nil {
			return nil, err
		}
		nodes := svc.Nodes()
		var genWall, genNode time.Duration
		var genRows int64
		_, err = timeBest(cfg, func() error {
			w, m, r, err := nodeTimes(n, func(node int) (int64, error) {
				count, _, err := countRows(prep, core.Options{NodeFilter: nodes[node]})
				return count, err
			})
			if err == nil {
				genWall, genNode, genRows = w, m, r
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fig10 n%d gen: %w", n, err)
		}
		if handRows != genRows {
			return nil, fmt.Errorf("fig10 n%d: hand %d rows, gen %d rows", n, handRows, genRows)
		}
		if refRows < 0 {
			refRows = genRows
		} else if genRows != refRows {
			return nil, fmt.Errorf("fig10 n%d: %d rows, expected %d across node counts", n, genRows, refRows)
		}
		ratio := float64(genNode) / float64(handNode)
		t.AddRow(fmt.Sprint(n), ms(handWall), ms(genWall), ms(handNode), ms(genNode),
			fmt.Sprintf("%.2f", ratio), fmt.Sprint(genRows))
	}
	t.Notes = append(t.Notes,
		"pernode_ms = max per-node time, measured with nodes run in isolation: the execution time a real cluster (one machine per node) would observe",
		"total_ms = sum over nodes (single-machine cost); the paper's 'scaled almost linearly' is the per-node series")
	return t, nil
}
