package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"

	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/query"
	"datavirt/internal/storm"
	"datavirt/internal/table"
)

// FuzzLegStream feeds arbitrary bytes to the coordinator's leg reader
// as a node's answer to one query, over an in-memory connection, once as
// a row leg and once as an aggregate leg. Whatever arrives, the leg must
// end with a trailer or an error — no panic, no hang. The seeds are real
// frames: row batches, partial aggregates, a done trailer, an error, a
// busy refusal, a truncated stream, a bare oversized header, and a row
// batch that holds the rows it claims but claims more than batchRows.
func FuzzLegStream(f *testing.F) {
	svc := localService(f, gen.IparsSpec{Realizations: 1, TimeSteps: 2, GridPoints: 8, Partitions: 1, Attrs: 2, Seed: 3})
	ctx := context.Background()
	rowPrep, err := svc.PrepareContext(ctx, "SELECT * FROM IparsData")
	if err != nil {
		f.Fatal(err)
	}
	aggPrep, err := svc.PrepareContext(ctx, "SELECT REL, COUNT(*), SUM(TIME), AVG(SOIL) FROM IparsData GROUP BY REL")
	if err != nil {
		f.Fatal(err)
	}
	codec := table.NewCodec(rowPrep.OutSchema)

	var rows bytes.Buffer
	var enc rowsFrameEncoder
	var body []byte
	n := 0
	if _, err := rowPrep.RunContext(ctx, core.Options{}, func(row table.Row) error {
		if body, err = codec.Append(body, row); err != nil {
			return err
		}
		if n++; n%5 == 0 {
			enc.writeRowsFrame(&rows, 1, 0, 5, body) //nolint:errcheck — bytes.Buffer
			body = body[:0]
		}
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	state, _, err := aggPrep.RunAggPartialContext(ctx, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	var aggs bytes.Buffer
	for _, chunk := range state.EncodeChunks(0) {
		writeFrame(&aggs, frameAgg, 1, chunk) //nolint:errcheck — bytes.Buffer
	}
	frame := func(typ byte, payload string) []byte {
		var b bytes.Buffer
		writeFrame(&b, typ, 1, []byte(payload)) //nolint:errcheck — bytes.Buffer
		return b.Bytes()
	}
	done := frame(frameDone, `{"Stats":{"ChunksRead":2},"Rows":16,"SentBytes":64}`)
	f.Add(append(rows.Bytes(), done...))
	f.Add(append(aggs.Bytes(), done...))
	f.Add(frame(frameError, "boom"))
	f.Add(frame(frameBusy, "cluster: node overloaded, query shed"))
	f.Add(rows.Bytes()[:rows.Len()/2])
	f.Add([]byte{0, 0, 0, 4, frameRows, 1, 0, 0, 0})
	var lying bytes.Buffer
	enc.writeRowsFrame(&lying, 1, 0, batchRows+1, make([]byte, (batchRows+1)*codec.RowBytes())) //nolint:errcheck — bytes.Buffer
	f.Add(append(lying.Bytes(), done...))

	f.Fuzz(func(t *testing.T, answer []byte) {
		legStreamOver(t, answer, codec, nil)
		agg := query.NewAggState(aggPrep.Agg)
		legStreamOver(t, answer, codec, agg.MergeEncoded)
	})
}

// legStreamOver runs one leg whose node answers the query frame with
// answer and then hangs up, decoding its row batches as the coordinator
// does, and returns how the leg ended. It fails the test if the leg
// hangs.
func legStreamOver(t *testing.T, answer []byte, codec *table.Codec, onAgg func([]byte) error) error {
	client, server := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer server.Close()
		if _, _, _, err := readFrame(server, nil); err != nil {
			return
		}
		server.Write(answer) //nolint:errcheck — the leg may stop reading early
	}()
	pool := &nodePool{
		dial: func(context.Context) (net.Conn, error) { return client, nil },
		busy: map[*poolConn]bool{},
	}
	c := &Coordinator{}
	var block []table.Row
	onRows := func(payload []byte) error {
		_, _, err := decodeRowsFrame(codec, &block, payload)
		return err
	}
	ended := make(chan error, 1)
	go func() {
		_, _, err := c.legStream(context.Background(), pool, Request{Version: protocolVersion}, onRows, onAgg)
		ended <- err
	}()
	var err error
	select {
	case err = <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("leg neither ended nor failed within 10s")
	}
	pool.close() // a leg that ended on a terminal frame left its conn idle
	<-served
	return err
}

// FuzzNodeRequest feeds arbitrary 'Q' payloads to a node serving a small
// local dataset, through the path a connection's request takes:
// decodeRequest, then runQuery's admission, planning, partition and
// request validation, and execution. Whatever arrives, the node must
// not panic, and its answer must end in exactly one terminal frame:
// 'E' for a request it refuses, 'D' for one it runs, with nothing but
// 'R' or 'A' frames before it.
func FuzzNodeRequest(f *testing.F) {
	svc := localService(f, gen.IparsSpec{Realizations: 1, TimeSteps: 2, GridPoints: 8, Partitions: 2, Attrs: 2, Seed: 3})
	name := svc.Nodes()[0]
	n := &Node{name: name, svc: svc, replicaOf: map[string]bool{name: true}, baseCtx: context.Background()}
	for _, req := range []Request{
		{Version: protocolVersion, SQL: "SELECT * FROM IparsData WHERE TIME = 1"},
		{Version: protocolVersion, SQL: "SELECT REL, COUNT(*), AVG(SOIL) FROM IparsData GROUP BY REL"},
		{Version: protocolVersion, SQL: "SELECT TIME, SOIL FROM IparsData",
			Partition: storm.PartitionSpec{Scheme: storm.RangeAttr, NumDests: 2, Attr: "SOIL", Bounds: []float64{0.5}}},
		{Version: protocolVersion, SQL: "SELECT * FROM IparsData", Partition: storm.PartitionSpec{NumDests: 1 << 30}},
		{Version: protocolVersion, SQL: "SELECT * FROM IparsData", NodeFilter: "elsewhere", TimeoutMS: 1},
		{Version: protocolVersion - 1, SQL: "SELECT * FROM IparsData"},
	} {
		payload, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte(`{"Version":4,"SQL":"SELECT FROM"}`))
	f.Add([]byte(`{"Version":"4"`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		var out bytes.Buffer
		bw := bufio.NewWriter(&out)
		req, err := decodeRequest(payload)
		if err != nil {
			err = writeTerminal(bw, frameError, 1, []byte(err.Error()))
		} else {
			err = n.runQuery(context.Background(), bw, 1, req)
		}
		if err != nil {
			t.Fatalf("writing the answer to memory failed: %v", err)
		}
		var last byte
		for r := bytes.NewReader(out.Bytes()); ; {
			typ, _, _, err := readFrame(r, nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("node wrote a malformed frame: %v", err)
			}
			if last == frameDone || last == frameError {
				t.Fatalf("frame %q after the terminal %q", typ, last)
			}
			if typ != frameRows && typ != frameAgg && typ != frameDone && typ != frameError {
				t.Fatalf("node answered with frame %q", typ)
			}
			last = typ
		}
		if last != frameDone && last != frameError {
			t.Fatalf("answer ended with %q, want a done or error frame", last)
		}
	})
}
