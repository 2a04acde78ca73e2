package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestOverloadBackoffHonorsCancel pins the regression the overload
// retry loop used to invite: a shed leg sleeping out its backoff must
// wake the moment the query's context is cancelled, not when the
// timer fires. The backoff here is absurd (30s) so a pass can only
// mean cancellation cut it short.
func TestOverloadBackoffHonorsCancel(t *testing.T) {
	gate := &gateTracer{entered: make(chan struct{}), release: make(chan struct{})}
	coord, _, _ := startOneNode(t, func(n *Node) {
		n.MaxConcurrent = 1
		n.MaxQueue = -1
		n.Tracer = gate
	}, nil)
	coord.OverloadBackoff = 30 * time.Second

	gate.armed.Store(true)
	holderErr := make(chan error, 1)
	go func() {
		_, _, err := coord.CollectQueryContext(context.Background(), "SELECT TIME FROM IparsData")
		holderErr <- err
	}()
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("holder query never reached execution")
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := coord.CollectQueryContext(ctx, "SELECT TIME FROM IparsData")
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled backoff returned %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — the leg slept out its 30s backoff", elapsed)
	}

	close(gate.release)
	if err := <-holderErr; err != nil {
		t.Fatalf("holder query failed: %v", err)
	}
}

// TestLegStage exercises the exactly-once staging buffer directly:
// nothing reaches the merge before commit, what is staged is a copy
// of the payload (the connection reuses its read buffer), reset
// discards cleanly, a budget overflow force-commits, and a payload
// that fails downstream fails the commit.
func TestLegStage(t *testing.T) {
	collect := func(got *[]string) func([]byte) error {
		return func(payload []byte) error {
			*got = append(*got, string(payload))
			return nil
		}
	}

	t.Run("withholds until commit", func(t *testing.T) {
		var got []string
		g := &legStage{budget: 1 << 20, onRows: collect(&got)}
		buf := []byte("r1")
		if err := g.rows(buf); err != nil {
			t.Fatal(err)
		}
		copy(buf, "xx") // the read buffer is reused for the next frame
		if err := g.rows([]byte("r2")); err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("staged payloads leaked to the merge: %q", got)
		}
		if err := g.commit(); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != "[r1 r2]" {
			t.Fatalf("commit delivered %q, want [r1 r2]", got)
		}
		// Post-commit deliveries pass straight through.
		if err := g.rows([]byte("r3")); err != nil || len(got) != 3 || got[2] != "r3" {
			t.Fatalf("post-commit delivery got %q, %v", got, err)
		}
	})

	t.Run("reset discards uncommitted", func(t *testing.T) {
		var got []string
		g := &legStage{budget: 1 << 20, onRows: collect(&got)}
		g.rows([]byte("r1")) //nolint:errcheck — staging cannot fail under budget
		g.reset()
		g.rows([]byte("r7")) //nolint:errcheck — the replay
		if err := g.commit(); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != "[r7]" {
			t.Fatalf("after reset+replay got %q, want [r7]", got)
		}
	})

	t.Run("budget overflow commits early", func(t *testing.T) {
		var got []string
		g := &legStage{budget: 16, onRows: collect(&got)}
		g.rows(make([]byte, 8)) //nolint:errcheck — 8 bytes: under budget, staged
		if len(got) != 0 {
			t.Fatalf("under-budget payload delivered early: %d", len(got))
		}
		if err := g.rows(make([]byte, 8)); err != nil { // 16 bytes: budget hit, auto-commit
			t.Fatal(err)
		}
		if !g.committed || len(got) != 2 {
			t.Fatalf("overflow: committed=%v delivered=%d, want true/2", g.committed, len(got))
		}
	})

	t.Run("agg payloads stage and propagate merge errors", func(t *testing.T) {
		boom := errors.New("merge rejected")
		var calls int
		g := &legStage{budget: 1 << 20, onAgg: func(payload []byte) error {
			calls++
			if calls == 2 {
				return boom
			}
			return nil
		}}
		if err := g.agg([]byte("p1")); err != nil {
			t.Fatal(err)
		}
		if err := g.agg([]byte("p2")); err != nil {
			t.Fatal(err)
		}
		if calls != 0 {
			t.Fatalf("staged partials leaked: %d merge calls", calls)
		}
		if err := g.commit(); !errors.Is(err, boom) {
			t.Fatalf("commit = %v, want the merge error", err)
		}
	})
}

// TestPickReplica pins the placement policy: skip failed and avoided
// nodes, prefer an ungated pool over a health-gated one, break ties
// by in-flight legs and then replica order (primary first), and fall
// back to the avoided node when it is the only survivor.
func TestPickReplica(t *testing.T) {
	newCoord := func() *Coordinator {
		return &Coordinator{addrs: map[string]string{"a": "x", "b": "x", "c": "x"}}
	}
	replicas := []string{"a", "b", "c"}

	t.Run("primary wins ties", func(t *testing.T) {
		c := newCoord()
		n, ok := c.pickReplica(replicas, nil, "")
		if !ok || n != "a" {
			t.Fatalf("got %q/%v, want primary a", n, ok)
		}
	})

	t.Run("least in-flight wins", func(t *testing.T) {
		c := newCoord()
		c.pool("a").legStarted()
		c.pool("b").legStarted()
		c.pool("b").legStarted()
		n, ok := c.pickReplica(replicas, nil, "")
		if !ok || n != "c" {
			t.Fatalf("got %q/%v, want idle c", n, ok)
		}
	})

	t.Run("health gate loses to ungated", func(t *testing.T) {
		c := newCoord()
		// Three straight failures gate a pool behind retryAt.
		for i := 0; i < 3; i++ {
			c.pool("a").reportResult(errors.New("down"), time.Minute)
		}
		c.pool("b").legStarted() // busier, but healthy
		n, ok := c.pickReplica(replicas[:2], nil, "")
		if !ok || n != "b" {
			t.Fatalf("got %q/%v, want ungated b", n, ok)
		}
	})

	t.Run("failed and avoided skipped", func(t *testing.T) {
		c := newCoord()
		n, ok := c.pickReplica(replicas, map[string]bool{"a": true}, "b")
		if !ok || n != "c" {
			t.Fatalf("got %q/%v, want c", n, ok)
		}
	})

	t.Run("avoid is better than nothing", func(t *testing.T) {
		c := newCoord()
		n, ok := c.pickReplica(replicas, map[string]bool{"a": true, "c": true}, "b")
		if !ok || n != "b" {
			t.Fatalf("got %q/%v, want the avoided-but-live b", n, ok)
		}
	})

	t.Run("all failed", func(t *testing.T) {
		c := newCoord()
		if n, ok := c.pickReplica(replicas, map[string]bool{"a": true, "b": true, "c": true}, ""); ok {
			t.Fatalf("got %q, want no candidate", n)
		}
	})
}

// TestPartitionFor pins the serve-side replica check: a node accepts
// its own partition and partitions it is declared a standby for, and
// rejects everything else — a coordinator bug must not make a node
// read files it does not hold.
func TestPartitionFor(t *testing.T) {
	n := &Node{name: "n1", replicaOf: map[string]bool{"n1": true, "n0": true}}
	for _, tc := range []struct {
		filter, want string
		wantErr      bool
	}{
		{"", "n1", false},   // pre-replica clients: own partition
		{"n1", "n1", false}, // explicit self
		{"n0", "n0", false}, // declared standby
		{"n2", "", true},    // not replicated here
	} {
		got, err := n.partitionFor(Request{NodeFilter: tc.filter})
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("partitionFor(%q) = %q, %v; want %q, err=%v", tc.filter, got, err, tc.want, tc.wantErr)
		}
	}
}
