package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/metadata"
	"datavirt/internal/schema"
	"datavirt/internal/table"
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
	// writeRowsFrame must emit exactly the bytes of writeFrame over a
	// destID|rowCount|body payload — the leg reader cannot tell them
	// apart.
	body := []byte("0123456789abcdef0123456789abcdef")
	var want bytes.Buffer
	payload := append([]byte{3, 0, 0, 0, 2, 0, 0, 0}, body...)
	if err := writeFrame(&want, frameRows, 9, payload); err != nil {
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

// BenchmarkRowsFrame measures the zero-copy 'R' frame writer; run with
// -benchmem to see that a frame allocates nothing.
func BenchmarkRowsFrame(b *testing.B) {
	body := make([]byte, 512*64) // one full batch of 64-byte rows
	enc := &rowsFrameEncoder{}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		if err := enc.writeRowsFrame(io.Discard, 1, 1, 512, body); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameRows, 1, make([]byte, maxFrame+1)); err == nil {
		t.Error("oversized write accepted")
	}
	// A length prefix over the limit is rejected before allocation.
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

// TestHeaderAloneCostsNoHeap sends a node four frame headers that each
// claim maxFrame bytes, then nothing more: the node's read buffers
// must grow with the bytes that arrive, not with the length prefixes.
func TestHeaderAloneCostsNoHeap(t *testing.T) {
	_, node, _ := startOneNode(t, nil, nil)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], maxFrame)
	hdr[4] = frameQuery
	for i := 0; i < 4; i++ {
		conn, err := net.Dial("tcp", node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
	}
	// Give the node's read loops time to take the headers in.
	for i := 0; i < 10; i++ {
		time.Sleep(25 * time.Millisecond)
		if grown := int64(heap()) - int64(before); grown > 8<<20 {
			t.Fatalf("four bare frame headers grew the heap by %d MiB, want < 8 MiB", grown>>20)
		}
	}
}

// TestLyingRowsFrameBoundsHeap answers a row leg with one maxFrame-byte
// 'R' frame of 1-byte rows that holds every row it claims, 64 Mi of
// them. The leg must refuse it for claiming more than batchRows rows
// rather than decode it, which would cost 48 bytes of values and row
// headers per byte of frame. What the leg allocates stays within six
// frame sizes: the read buffer grows readStep at a time, so reading a
// frame this size reallocates it about five frame sizes' worth.
func TestLyingRowsFrameBoundsHeap(t *testing.T) {
	codec := table.NewCodec(schema.MustNew("T", []schema.Attribute{{Name: "C", Kind: schema.Char}}))
	var answer bytes.Buffer
	var enc rowsFrameEncoder
	const count = maxFrame - 8
	if err := enc.writeRowsFrame(&answer, 1, 0, count, make([]byte, count)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := legStreamOver(t, answer.Bytes(), codec, nil)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "claims") {
		t.Errorf("leg ended with %v, want the row-count refusal", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 6*maxFrame {
		t.Errorf("one %d MiB frame made the leg allocate %d MiB, want < %d MiB", maxFrame>>20, grown>>20, 6*maxFrame>>20)
	}
}

// TestMixedVersionPayloads pins what a version mismatch does in each
// direction, and that retired request fields stay harmless within v4:
//   - a v3 'Q' sent to a v4 node is answered with an 'E' frame naming
//     both versions;
//   - a v4 coordinator facing a v3 node (which refuses the request by
//     version, as every v3 node does) fails the query with an error
//     naming both versions, rather than returning a leg with zero
//     counters;
//   - a v4 'Q' still carrying the retired WindowBytes, Weight,
//     MaxResultBytes and Parallel fields is answered in full.
func TestMixedVersionPayloads(t *testing.T) {
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
	ask := func(fields map[string]any) (rows int64, frames int, errMsg string) {
		t.Helper()
		payload, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
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
		for {
			typ, qid, body, err := readFrame(conn, nil)
			if err != nil {
				t.Fatal(err)
			}
			if qid != 1 {
				t.Fatalf("node answered query 1 with a frame for query %d", qid)
			}
			switch typ {
			case frameRows:
				frames++
			case frameDone:
				var done Trailer
				if err := json.Unmarshal(body, &done); err != nil {
					t.Fatal(err)
				}
				return done.Rows, frames, ""
			case frameError:
				return 0, frames, string(body)
			default:
				t.Fatalf("node answered frame %q: %s", typ, body)
			}
		}
	}
	const sql = "SELECT TIME FROM IparsData"

	if _, _, msg := ask(map[string]any{"Version": 3, "SQL": sql}); !strings.Contains(msg, "3") || !strings.Contains(msg, "4") {
		t.Errorf("v3 request: node answered %q, want an error naming versions 3 and 4", msg)
	}

	rows, frames, msg := ask(map[string]any{
		"Version": protocolVersion, "SQL": sql,
		"WindowBytes": 1 << 16, "Weight": 2, "MaxResultBytes": 1 << 20, "Parallel": true,
	})
	if msg != "" || rows != spec.IparsTotalRows() || frames == 0 {
		t.Errorf("v4 request with retired fields: %d rows in %d frames, error %q; want %d rows", rows, frames, msg, spec.IparsTotalRows())
	}

	// A v3 node checks the version of every request before anything
	// else and refuses a v4 one by name.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					_, qid, payload, err := readFrame(c, nil)
					if err != nil {
						return
					}
					var req Request
					json.Unmarshal(payload, &req) //nolint:errcheck — a zero version is refused like any other
					msg := fmt.Sprintf("protocol version %d not supported (want 3)", req.Version)
					if writeFrame(c, frameError, qid, []byte(msg)) != nil {
						return
					}
				}
			}()
		}
	}()
	d, err := metadata.ParseFile(descPath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(d, map[string]string{"node0": ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	_, res, err := coord.CollectQueryContext(context.Background(), sql)
	if err == nil || !strings.Contains(err.Error(), "version 4") || !strings.Contains(err.Error(), "want 3") {
		t.Fatalf("v4 coordinator against a v3 node: result %+v, err %v; want an error naming both versions", res, err)
	}
}
