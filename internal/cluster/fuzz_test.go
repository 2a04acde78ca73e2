package cluster

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"datavirt/internal/core"
	"datavirt/internal/gen"
	"datavirt/internal/query"
	"datavirt/internal/table"
)

// FuzzLegStream feeds arbitrary bytes to the coordinator's leg reader
// as a node's answer to one query, over an in-memory connection, once as
// a row leg and once as an aggregate leg. Whatever arrives, the leg must
// end with a trailer or an error — no panic, no hang. The seeds are real
// frames: row batches, partial aggregates, a done trailer, an error, a
// busy refusal, a truncated stream and a bare oversized header.
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

	f.Fuzz(func(t *testing.T, answer []byte) {
		legStreamOver(t, answer, codec, nil)
		agg := query.NewAggState(aggPrep.Agg)
		legStreamOver(t, answer, codec, agg.MergeEncoded)
	})
}

// legStreamOver runs one leg whose node answers the query frame with
// answer and then hangs up, and fails the test if the leg hangs.
func legStreamOver(t *testing.T, answer []byte, codec *table.Codec, onAgg func([]byte) error) {
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
	ended := make(chan error, 1)
	go func() {
		_, _, err := c.legStream(context.Background(), pool, Request{Version: protocolVersion}, codec,
			func(int, []table.Row) {}, onAgg)
		ended <- err
	}()
	select {
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("leg neither ended nor failed within 10s")
	}
	pool.close() // a leg that ended on a terminal frame left its conn idle
	<-served
}
