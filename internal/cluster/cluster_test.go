package cluster

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/metadata"
	"datavirt/internal/storm"
	"datavirt/internal/table"
)

// startCluster generates a CLUSTER-layout IPARS dataset and launches
// one node server per partition, returning a ready coordinator.
func startCluster(t *testing.T, s gen.IparsSpec) (*Coordinator, gen.IparsSpec) {
	t.Helper()
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, "CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	return startClusterAt(t, descPath, root), s
}

// startClusterAt launches one node server per node the descriptor at
// descPath names, over the dataset under root.
func startClusterAt(t *testing.T, descPath, root string) *Coordinator {
	t.Helper()
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[string]string{}
	for _, dir := range d.Storage.Dirs {
		name := dir.Node
		if _, ok := addrs[name]; ok {
			continue
		}
		// Each node gets its own service over the shared root (on a real
		// cluster each node sees only its local disk; the resolver makes
		// that irrelevant here).
		svc, err := core.Open(descPath, root)
		if err != nil {
			t.Fatal(err)
		}
		node, err := StartNode(context.Background(), name, svc, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node.Logf = t.Logf
		t.Cleanup(func() { node.Close() })
		addrs[name] = node.Addr()
	}
	coord, err := NewCoordinator(d, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

func defaultSpec() gen.IparsSpec {
	return gen.IparsSpec{
		Realizations: 2, TimeSteps: 5, GridPoints: 24, Partitions: 3,
		Attrs: 4, Seed: 33,
	}
}

func TestDistributedFullScan(t *testing.T) {
	coord, s := startCluster(t, defaultSpec())
	rows, res, err := coord.CollectQueryContext(context.Background(), "SELECT * FROM IparsData")
	if err != nil {
		t.Fatalf("CollectQuery: %v", err)
	}
	if int64(len(rows)) != s.IparsTotalRows() {
		t.Errorf("rows = %d, want %d", len(rows), s.IparsTotalRows())
	}
	if res.Rows != s.IparsTotalRows() {
		t.Errorf("trailer rows = %d", res.Rows)
	}
	// Work spread over all three nodes, equally (uniform partitions).
	if len(res.PerNode) != 3 {
		t.Fatalf("PerNode = %v", res.PerNode)
	}
	for n, c := range res.PerNode {
		if c != s.IparsTotalRows()/3 {
			t.Errorf("node %s produced %d rows", n, c)
		}
	}
	if res.Stats.RowsScanned != s.IparsTotalRows() {
		t.Errorf("scanned = %d", res.Stats.RowsScanned)
	}
}

func TestDistributedMatchesLocal(t *testing.T) {
	s := defaultSpec()
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, "CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.Open(descPath, root)
	if err != nil {
		t.Fatal(err)
	}
	coord, _ := startCluster(t, s)

	for _, sql := range []string{
		"SELECT * FROM IparsData WHERE TIME >= 2 AND TIME <= 3",
		"SELECT SOIL, TIME FROM IparsData WHERE SGAS > 0.5 AND REL = 1",
		"SELECT * FROM IparsData WHERE TIME > 100", // empty
	} {
		lrows, err := local.QueryContext(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		var want []table.Row
		for lrows.Next() {
			want = append(want, lrows.Row())
		}
		if err := lrows.Close(); err != nil {
			t.Fatal(err)
		}
		got, _, err := coord.CollectQueryContext(context.Background(), sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: distributed %d rows, local %d", sql, len(got), len(want))
		}
		key := func(r table.Row) string {
			return table.FormatRow(r)
		}
		a := make([]string, len(got))
		b := make([]string, len(want))
		for i := range got {
			a[i] = key(got[i])
			b[i] = key(want[i])
		}
		sort.Strings(a)
		sort.Strings(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%q: row %d differs:\n%s\n%s", sql, i, a[i], b[i])
			}
		}
	}
}

// TestCursorMatchesCallback drains the same queries from a two-node
// cluster three ways — the cursor (rows retained and read only after
// Close), the per-row callback (rows read inside the call, as its
// contract demands) and CollectQueryContext — and requires identical
// row sets. Each node ships several 'R' frames, so frame-sized batches
// cross the merge and the cursor in both interleavings.
func TestCursorMatchesCallback(t *testing.T) {
	coord, s := startCluster(t, gen.IparsSpec{
		Realizations: 2, TimeSteps: 10, GridPoints: 300, Partitions: 2,
		Attrs: 4, Seed: 35,
	})
	ctx := context.Background()
	for _, sql := range []string{
		"SELECT * FROM IparsData",
		"SELECT SOIL, TIME, X FROM IparsData WHERE SGAS > 0.5 AND TIME >= 2",
		"SELECT TIME, COUNT(*), AVG(SOIL) FROM IparsData GROUP BY TIME",
		"SELECT * FROM IparsData WHERE TIME > 100", // empty
	} {
		rows, err := coord.QueryContext(ctx, sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		var kept []table.Row
		for rows.Next() {
			kept = append(kept, rows.Row())
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("%q: cursor: %v", sql, err)
		}
		cursor := sortedKeys(kept)

		var callback []string
		if _, err := coord.QueryFuncContext(ctx, sql, func(r table.Row) error {
			callback = append(callback, table.FormatRow(r))
			return nil
		}); err != nil {
			t.Fatalf("%q: callback: %v", sql, err)
		}
		sort.Strings(callback)

		collected, _, err := coord.CollectQueryContext(ctx, sql)
		if err != nil {
			t.Fatalf("%q: collect: %v", sql, err)
		}
		if sql == "SELECT * FROM IparsData" && int64(len(kept)) != s.IparsTotalRows() {
			t.Errorf("full scan returned %d rows, want %d", len(kept), s.IparsTotalRows())
		}
		for name, other := range map[string][]string{"callback": callback, "collect": sortedKeys(collected)} {
			if len(other) != len(cursor) {
				t.Fatalf("%q: cursor %d rows, %s %d", sql, len(cursor), name, len(other))
			}
			for i := range cursor {
				if cursor[i] != other[i] {
					t.Fatalf("%q: row %d: cursor %s, %s %s", sql, i, cursor[i], name, other[i])
				}
			}
		}
	}
}

func TestServerSidePartitioning(t *testing.T) {
	coord, s := startCluster(t, defaultSpec())
	sinks := []storm.Sink{&storm.SliceSink{}, &storm.SliceSink{}}
	spec := storm.PartitionSpec{Scheme: storm.HashAttr, NumDests: 2, Attr: "TIME"}
	res, err := coord.QueryPartitionedContext(context.Background(), "SELECT TIME, SOIL FROM IparsData", spec, sinks)
	if err != nil {
		t.Fatalf("QueryPartitioned: %v", err)
	}
	n0 := len(sinks[0].(*storm.SliceSink).Rows)
	n1 := len(sinks[1].(*storm.SliceSink).Rows)
	if int64(n0+n1) != s.IparsTotalRows() || res.Rows != s.IparsTotalRows() {
		t.Errorf("partitioned rows = %d + %d, want %d", n0, n1, s.IparsTotalRows())
	}
	if n0 == 0 || n1 == 0 {
		t.Errorf("degenerate partitioning: %d/%d", n0, n1)
	}
	// Hash partitioning keeps equal TIME values on one destination.
	seen := map[float64]int{}
	for d, s := range sinks {
		for _, r := range s.(*storm.SliceSink).Rows {
			v := r[0].AsFloat()
			if prev, ok := seen[v]; ok && prev != d {
				t.Fatalf("TIME=%g appears on destinations %d and %d", v, prev, d)
			}
			seen[v] = d
		}
	}
	// Mismatched sink count is rejected.
	if _, err := coord.QueryPartitionedContext(context.Background(), "SELECT TIME FROM IparsData", spec, sinks[:1]); err == nil {
		t.Error("sink count mismatch accepted")
	}
}

// countingSink counts rows and closes, optionally failing Send.
type countingSink struct {
	rows, closes int
	sendErr      error
}

func (s *countingSink) Send(table.Row) error { s.rows++; return s.sendErr }
func (s *countingSink) Close() error         { s.closes++; return nil }

// TestPartitionedSinksClosedOnFailure checks that every sink is closed
// exactly once whether the partitioned query succeeds or fails, and
// that a failed query reports its own error.
func TestPartitionedSinksClosedOnFailure(t *testing.T) {
	coord, _ := startCluster(t, defaultSpec())
	spec := storm.PartitionSpec{Scheme: storm.RoundRobin, NumDests: 2}
	boom := errors.New("sink full")
	for _, tc := range []struct {
		name, sql string
		sendErr   error
		wantErr   bool
	}{
		{"ok", "SELECT TIME FROM IparsData", nil, false},
		{"bad sql", "SELECT NOPE FROM IparsData", nil, true},
		{"send fails", "SELECT TIME FROM IparsData", boom, true},
	} {
		a, b := &countingSink{sendErr: tc.sendErr}, &countingSink{sendErr: tc.sendErr}
		_, err := coord.QueryPartitionedContext(context.Background(), tc.sql, spec, []storm.Sink{a, b})
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		if tc.sendErr != nil && !errors.Is(err, tc.sendErr) {
			t.Errorf("%s: err = %v, want the query's own error %v", tc.name, err, tc.sendErr)
		}
		if a.closes != 1 || b.closes != 1 {
			t.Errorf("%s: sinks closed %d and %d times, want 1 and 1", tc.name, a.closes, b.closes)
		}
	}
}

// TestCrossNodeFileGroupRejected pins the co-location contract. The
// dataset is layout L0 with COORDS on node0 and the variable files of
// the same file group on node1: the local service reads it whole, but
// each of its aligned file chunks spans both nodes, so every node leg
// would drop it. The coordinator must refuse the query, naming the
// chunk, instead of returning an empty result.
func TestCrossNodeFileGroupRejected(t *testing.T) {
	s := gen.IparsSpec{Realizations: 1, TimeSteps: 2, GridPoints: 64, Partitions: 1, Attrs: 3, Seed: 5}
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, "L0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	desc := strings.Replace(string(b), "DIR[0] = node0/ipars\n", "DIR[0] = node0/ipars\nDIR[1] = node1/ipars\n", 1)
	desc = strings.ReplaceAll(desc, "DIR[0]/", "DIR[1]/")
	desc = strings.ReplaceAll(desc, "DIR[1]/COORDS", "DIR[0]/COORDS")
	if err := os.WriteFile(descPath, []byte(desc), 0o644); err != nil {
		t.Fatal(err)
	}
	from, to := filepath.Join(root, "node0", "ipars"), filepath.Join(root, "node1", "ipars")
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.Name() != "COORDS" {
			if err := os.Rename(filepath.Join(from, f.Name()), filepath.Join(to, f.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}

	local, err := core.Open(descPath, root)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	prep, err := local.PrepareContext(context.Background(), "SELECT * FROM IparsData")
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := prep.CollectContext(context.Background(), core.Options{})
	if err != nil || int64(len(want)) != s.IparsTotalRows() {
		t.Fatalf("local scan: %d rows, %v; want %d", len(want), err, s.IparsTotalRows())
	}

	coord := startClusterAt(t, descPath, root)
	for _, sql := range []string{"SELECT * FROM IparsData", "SELECT TIME, AVG(SOIL), MAX(X) FROM IparsData GROUP BY TIME"} {
		rows, res, err := coord.CollectQueryContext(context.Background(), sql)
		if err == nil {
			t.Fatalf("%q: %d rows, nil error (PerNode %v); want a cross-node chunk error", sql, len(rows), res.PerNode)
		}
		if !strings.Contains(err.Error(), "spans nodes node0 and node1: AFC{") {
			t.Errorf("%q: error %q does not name the cross-node chunk", sql, err)
		}
	}
}

func TestRangePartitionedQuery(t *testing.T) {
	coord, s := startCluster(t, defaultSpec())
	sinks := []storm.Sink{&storm.SliceSink{}, &storm.SliceSink{}, &storm.SliceSink{}}
	spec := storm.PartitionSpec{
		Scheme: storm.RangeAttr, NumDests: 3, Attr: "TIME",
		Bounds: []float64{2.5, 4.5},
	}
	if _, err := coord.QueryPartitionedContext(context.Background(), "SELECT TIME FROM IparsData", spec, sinks); err != nil {
		t.Fatal(err)
	}
	perTime := s.IparsTotalRows() / int64(s.TimeSteps)
	wants := []int64{2 * perTime, 2 * perTime, 1 * perTime} // TIME 1-2 | 3-4 | 5
	for d, sink := range sinks {
		rows := sink.(*storm.SliceSink).Rows
		if int64(len(rows)) != wants[d] {
			t.Errorf("dest %d got %d rows, want %d", d, len(rows), wants[d])
		}
	}
}

func TestQueryErrorsPropagate(t *testing.T) {
	coord, _ := startCluster(t, defaultSpec())
	if _, _, err := coord.CollectQueryContext(context.Background(), "SELECT NOPE FROM IparsData"); err == nil {
		t.Error("bad column accepted")
	}
	if _, _, err := coord.CollectQueryContext(context.Background(), "garbage"); err == nil {
		t.Error("bad SQL accepted")
	}
}

func TestCoordinatorMissingNode(t *testing.T) {
	s := defaultSpec()
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, "CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(d, map[string]string{"node0": "127.0.0.1:1"}); err == nil {
		t.Error("incomplete address table accepted")
	}
}

func TestDeadNodeError(t *testing.T) {
	s := defaultSpec()
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, "CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	// Point every node at a port nobody listens on.
	addrs := map[string]string{}
	for i := 0; i < s.Partitions; i++ {
		addrs["node"+string(rune('0'+i))] = "127.0.0.1:1"
	}
	coord, err := NewCoordinator(d, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.CollectQueryContext(context.Background(), "SELECT TIME FROM IparsData"); err == nil {
		t.Error("dead nodes accepted")
	}
}

func TestNodeRejectsBadFrames(t *testing.T) {
	s := defaultSpec()
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, "CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.Open(descPath, root)
	if err != nil {
		t.Fatal(err)
	}
	node, err := StartNode(context.Background(), "node0", svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node.Logf = func(string, ...any) {}
	defer node.Close()

	// Garbage request JSON → 'E' frame tagged with the same query ID.
	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameQuery, 42, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	typ, qid, payload, err := readFrame(conn, nil)
	if err != nil || typ != frameError || qid != 42 {
		t.Fatalf("frame = %q qid=%d, %v", typ, qid, err)
	}
	if !strings.Contains(string(payload), "bad request") {
		t.Errorf("error = %s", payload)
	}
	conn.Close()

	// Wrong protocol version.
	conn2, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeJSONFrame(conn2, frameQuery, 1, Request{Version: 99, SQL: "SELECT TIME FROM IparsData"}); err != nil {
		t.Fatal(err)
	}
	typ, _, payload, err = readFrame(conn2, nil)
	if err != nil || typ != frameError || !strings.Contains(string(payload), "version") {
		t.Fatalf("version check: %q %s %v", typ, payload, err)
	}
	conn2.Close()

	// A frame type only servers send → the session is torn down.
	conn3, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	writeFrame(conn3, frameRows, 1, []byte{}) //nolint:errcheck
	conn3.Close()

	// Node still serves after bad clients.
	coordAddrs := map[string]string{"node0": node.Addr()}
	_ = coordAddrs
	if node.Name() != "node0" {
		t.Error("Name wrong")
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	s := defaultSpec()
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, "CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.Open(descPath, root)
	if err != nil {
		t.Fatal(err)
	}
	node, err := StartNode(context.Background(), "node0", svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := node.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestClusterCacheStatsCrossWire(t *testing.T) {
	coord, _ := startCluster(t, defaultSpec())
	sql := "SELECT * FROM IparsData WHERE TIME >= 1 AND TIME <= 3"

	_, cold, err := coord.CollectQueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.CacheMisses == 0 || cold.Stats.FSBytesRead == 0 {
		t.Fatalf("cold distributed query reported no cache traffic: %+v", cold.Stats)
	}
	if cold.QueryStats.CacheMisses != cold.Stats.CacheMisses ||
		cold.QueryStats.FSBytesRead != cold.Stats.FSBytesRead {
		t.Errorf("QueryStats dropped cache counters: %+v vs %+v", cold.QueryStats, cold.Stats)
	}

	// Node services keep their block caches across queries: a repeat of
	// the same query is served warm on every node.
	_, warm, err := coord.CollectQueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Rows != cold.Rows || warm.Rows == 0 {
		t.Fatalf("warm rows = %d, cold = %d", warm.Rows, cold.Rows)
	}
	if warm.Stats.FSBytesRead != 0 {
		t.Errorf("warm distributed query read %d fs bytes, want 0", warm.Stats.FSBytesRead)
	}
	if warm.Stats.CacheHits == 0 || warm.Stats.CacheMisses != 0 {
		t.Errorf("warm distributed query not cache-served: %+v", warm.Stats)
	}
	if warm.Stats.BytesRead != cold.Stats.BytesRead {
		t.Errorf("analytic BytesRead changed warm: %d vs %d", warm.Stats.BytesRead, cold.Stats.BytesRead)
	}
}
