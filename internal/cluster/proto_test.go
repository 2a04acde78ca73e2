package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"datavirt/internal/core"
	"datavirt/internal/gen"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := writeFrame(&buf, frameRows, 7, payload); err != nil {
		t.Fatal(err)
	}
	typ, qid, got, err := readFrame(&buf, nil)
	if err != nil || typ != frameRows || qid != 7 || string(got) != string(payload) {
		t.Fatalf("round trip: %q qid=%d %q %v", typ, qid, got, err)
	}
}

func TestFrameBufferReuse(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, frameRows, 1, []byte("aaaa")) //nolint:errcheck
	writeFrame(&buf, frameDone, 2, []byte("bb"))   //nolint:errcheck
	scratch := make([]byte, 16)
	_, q1, p1, err := readFrame(&buf, scratch)
	if err != nil || q1 != 1 || string(p1) != "aaaa" {
		t.Fatal(err)
	}
	_, q2, p2, err := readFrame(&buf, p1)
	if err != nil || q2 != 2 || string(p2) != "bb" {
		t.Fatalf("second frame: %q %v", p2, err)
	}
}

func TestRowsFrameWireFormat(t *testing.T) {
	// writeRowsFrame must emit exactly the bytes of writeFrame over an
	// assembled destID|rowCount|body payload (encodeRowsBody) — the
	// session reader cannot tell them apart.
	body := []byte("0123456789abcdef0123456789abcdef")
	var want bytes.Buffer
	if err := writeFrame(&want, frameRows, 9, encodeRowsBody(3, 2, body)); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	var enc rowsFrameEncoder
	if err := enc.writeRowsFrame(&got, 9, 3, 2, body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("wire bytes differ:\n got %x\nwant %x", got.Bytes(), want.Bytes())
	}
	if err := enc.writeRowsFrame(io.Discard, 0, 0, 0, make([]byte, maxFrame)); err == nil {
		t.Error("oversized rows frame accepted")
	}
}

func TestRowsFrameNoAllocs(t *testing.T) {
	body := make([]byte, 512*64)
	enc := &rowsFrameEncoder{}
	allocs := testing.AllocsPerRun(100, func() {
		if err := enc.writeRowsFrame(io.Discard, 1, 1, 512, body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("writeRowsFrame allocates %.1f objects per frame, want 0", allocs)
	}
}

func TestWindowPayloadRoundTrip(t *testing.T) {
	got, err := parseWindow(windowPayload(1 << 20))
	if err != nil || got != 1<<20 {
		t.Fatalf("window round trip: %d %v", got, err)
	}
	if _, err := parseWindow([]byte{1, 2, 3}); err == nil {
		t.Error("short window payload accepted")
	}
}

// BenchmarkRowsFrame compares the zero-copy 'R' frame writer against
// the assemble-then-write path; run with -benchmem to see the
// per-batch allocation drop (one payload-sized allocation per frame).
func BenchmarkRowsFrame(b *testing.B) {
	body := make([]byte, 512*64) // one full batch of 64-byte rows
	b.Run("direct", func(b *testing.B) {
		enc := &rowsFrameEncoder{}
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if err := enc.writeRowsFrame(io.Discard, 1, 1, 512, body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("assemble", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if err := writeFrame(io.Discard, frameRows, 1, encodeRowsBody(1, 512, body)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameRows, 1, make([]byte, maxFrame+1)); err == nil {
		t.Error("oversized write accepted")
	}
	// A corrupt length prefix is rejected before allocation.
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], maxFrame+1)
	hdr[4] = frameRows
	if _, _, _, err := readFrame(bytes.NewReader(hdr[:]), nil); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("corrupt length: %v", err)
	}
	// Truncated payload.
	var short bytes.Buffer
	binary.LittleEndian.PutUint32(hdr[:4], 100)
	short.Write(hdr[:])
	short.WriteString("only a little")
	if _, _, _, err := readFrame(&short, nil); err == nil {
		t.Error("short frame accepted")
	}
}

// TestMixedVersionPayloads keeps mixed-version clusters working: a
// trailer from a node that still reports plan-cache counters, and a 'Q'
// request from a coordinator that still sends the retired window,
// weight, result-size and Parallel fields, both decode — in the unit
// form the coordinator and node use, and through a live node session,
// which still answers the old request with every row.
func TestMixedVersionPayloads(t *testing.T) {
	var tr Trailer
	old := `{"Stats":{"AFCs":2,"RowsScanned":10},"Rows":7,"ExtractNS":5,"PlanCacheHits":1,"PlanCacheMisses":0,"SentBytes":64}`
	if err := json.Unmarshal([]byte(old), &tr); err != nil {
		t.Fatalf("old trailer: %v", err)
	}
	if tr.Rows != 7 || tr.Stats.RowsScanned != 10 || tr.ExtractNS != 5 || tr.SentBytes != 64 {
		t.Errorf("old trailer decoded to %+v", tr)
	}

	spec := gen.IparsSpec{Realizations: 1, TimeSteps: 3, GridPoints: 8, Partitions: 1, Attrs: 2, Seed: 4}
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, spec, "CLUSTER")
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
	defer node.Close()

	fields := map[string]any{
		"Version": protocolVersion, "SQL": "SELECT TIME FROM IparsData",
		"WindowBytes": 1 << 16, "Weight": 2, "MaxResultBytes": 1 << 20, "Parallel": true,
	}
	payload, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := json.Unmarshal(payload, &req); err != nil || req.Version != protocolVersion || req.SQL != fields["SQL"] {
		t.Fatalf("old request decoded to %+v, %v", req, err)
	}

	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if err := writeFrame(conn, frameQuery, 1, payload); err != nil {
		t.Fatal(err)
	}
	rowFrames := 0
	for {
		typ, _, body, err := readFrame(conn, nil)
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case frameRows:
			rowFrames++
		case frameDone:
			var done Trailer
			if err := json.Unmarshal(body, &done); err != nil {
				t.Fatal(err)
			}
			if done.Rows != spec.IparsTotalRows() || rowFrames == 0 {
				t.Errorf("node answered %d rows in %d frames, want %d", done.Rows, rowFrames, spec.IparsTotalRows())
			}
			return
		default:
			t.Fatalf("node answered frame %q: %s", typ, body)
		}
	}
}
