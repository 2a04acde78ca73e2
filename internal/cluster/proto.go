// Package cluster executes virtual-table queries across the nodes of a
// (simulated) cluster: one node server per cluster node, each owning the
// files whose storage directories name it, and a coordinator that fans a
// query out, merges the tuple streams, and optionally routes tuples to
// client processors using the partition generated at the service side —
// the deployment the paper evaluates on 1–16 nodes, grown into a
// concurrent serving system: the coordinator keeps a pool of idle
// connections to every node, and each connection carries one query at
// a time.
//
// The wire protocol (version 4) is length-prefixed binary frames over
// TCP. Every frame carries the query ID of the request it belongs to:
// the coordinator picks it, and the node echoes it on every frame of
// the answer.
//
//	frame   = len uint32 (LE) | type byte | qid uint32 (LE) | payload
//	'Q'     = query request (JSON header), client → node
//	'R'     = row batch: destID uint32 | rowCount uint32 | rows (codec)
//	'A'     = partial aggregates (query.AggState wire encoding)
//	'D'     = done: JSON stats trailer (terminal)
//	'E'     = error: UTF-8 message (terminal)
//	'B'     = busy: the node shed the query at admission (terminal)
//
// Rows travel in the fixed-width schema codec of internal/table; both
// ends derive the row layout from the query's SELECT list against the
// shared descriptor. Aggregate queries (GROUP BY / aggregate
// functions) ship no rows at all: each leg evaluates partial
// aggregates over its blocks and streams them in 'A' frames — each an
// independently mergeable group of partials — which the coordinator
// merges and finalizes, so result traffic scales with group count
// rather than row count. There is no flow control in the protocol: a
// connection carries one query, so TCP's window paces the node to the
// coordinator, and a consumer that stops reading stalls only its own
// query. Closing the connection cancels the query on the node.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"datavirt/internal/obs"
	"datavirt/internal/storm"
)

const (
	frameQuery = 'Q'
	frameRows  = 'R'
	frameAgg   = 'A'
	frameDone  = 'D'
	frameError = 'E'
	frameBusy  = 'B'

	// maxFrame guards against corrupt length prefixes.
	maxFrame = 64 << 20
	// readStep bounds how far readFrame's buffer grows ahead of the
	// payload bytes that have arrived: a length prefix alone costs
	// nothing.
	readStep = 1 << 20

	// protocolVersion is checked per query request, and a node answers
	// a request of any other version with an 'E' frame naming both.
	// Version 2 added query-ID-tagged frames, version 3 the 'A'
	// partial-aggregate frame, and version 4 made a connection carry one
	// query at a time: the 'W' credit and 'C' cancel frames are gone, and
	// the 'D' trailer is the leg's obs.QueryStats plus row and byte
	// counts. The JSON payloads decode with unknown members ignored, so a
	// retired request field a peer still sends is harmless.
	protocolVersion = 4

	// batchRows is the number of rows per 'R' frame.
	batchRows = 512

	// frameHeaderLen is len + type + qid.
	frameHeaderLen = 9
)

// ErrOverloaded is the typed load-shedding error: a node whose
// admission queue is full rejects the query with a 'B' busy frame
// (the 429 of this protocol) instead of letting it pile up. The
// coordinator retries shed legs with backoff; when retries are
// exhausted the query fails with an error matching this via errors.Is.
var ErrOverloaded = errors.New("cluster: node overloaded, query shed")

// Request is the JSON payload of a 'Q' frame. Retired fields, which a
// node ignores: WindowBytes, Weight and MaxResultBytes (per-query
// credit, scheduler share and byte budget), and Parallel (a node always
// folds aggregates through its worker pool and streams row legs in plan
// order on one goroutine).
type Request struct {
	Version int
	// SQL is the query text.
	SQL string
	// Partition describes the client program's distribution; the node
	// computes each tuple's destination (partition generation at the
	// server). A zero NumDests means a single unpartitioned stream.
	Partition storm.PartitionSpec
	// TimeoutMS bounds the node-side execution in milliseconds; the
	// coordinator derives it from its context deadline so a node keeps
	// no work in flight after the client has given up. Zero means no
	// server-side bound.
	TimeoutMS int64 `json:",omitempty"`
	// NodeFilter names the storage partition (by its primary node) the
	// leg should extract. Empty means the serving node's own partition
	// — the only shape before replica sets existed, so the field is
	// wire-compatible. A coordinator failing a leg over sets this to
	// the partition's primary so a standby replica extracts the same
	// files; the node rejects names whose partition it does not hold.
	NodeFilter string `json:",omitempty"`
}

// Trailer is the JSON payload of a 'D' frame.
type Trailer struct {
	// Stats is the leg's cost record: the node's core run, plus its
	// admission wait in QueueTime and QueuedQueries.
	Stats obs.QueryStats
	Rows  int64
	// SentBytes is the result payload the leg streamed ('R' or 'A'
	// frame bodies) — the coordinator-side transfer cost a pushed-down
	// aggregate keeps proportional to group count, not row count.
	SentBytes int64 `json:",omitempty"`
}

// writeFrame writes one frame tagged with qid.
func writeFrame(w io.Writer, typ byte, qid uint32, payload []byte) error {
	var hdr [frameHeaderLen]byte
	if len(payload) > maxFrame {
		return fmt.Errorf("cluster: frame of %d bytes exceeds limit", len(payload))
	}
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	binary.LittleEndian.PutUint32(hdr[5:9], qid)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// rowsFrameEncoder writes 'R' frames — destID | rowCount | rows —
// without assembling the payload in a temporary: the 17-byte header
// (length prefix, type, query ID, destination, count) is encoded into
// the encoder's reused array and the row body is written straight from
// the caller's batch buffer, so steady-state row streaming allocates
// nothing per frame.
type rowsFrameEncoder struct {
	hdr [frameHeaderLen + 8]byte
}

func (e *rowsFrameEncoder) writeRowsFrame(w io.Writer, qid, dest, count uint32, body []byte) error {
	if 8+len(body) > maxFrame {
		return fmt.Errorf("cluster: frame of %d bytes exceeds limit", 8+len(body))
	}
	binary.LittleEndian.PutUint32(e.hdr[0:4], uint32(8+len(body)))
	e.hdr[4] = frameRows
	binary.LittleEndian.PutUint32(e.hdr[5:9], qid)
	binary.LittleEndian.PutUint32(e.hdr[9:13], dest)
	binary.LittleEndian.PutUint32(e.hdr[13:17], count)
	if _, err := w.Write(e.hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one frame, header included, into buf's capacity (a
// header array would escape: one allocation per frame). The length
// prefix is untrusted, so the buffer grows as payload bytes arrive, at
// most readStep ahead of them, never to the size the prefix claims.
func readFrame(r io.Reader, buf []byte) (typ byte, qid uint32, payload []byte, err error) {
	hdr := slices.Grow(buf[:0], frameHeaderLen)[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	if n > maxFrame {
		return 0, 0, nil, fmt.Errorf("cluster: frame length %d exceeds limit", n)
	}
	typ, qid = hdr[4], binary.LittleEndian.Uint32(hdr[5:9])
	buf = hdr[:0]
	for len(buf) < n {
		step := min(n-len(buf), readStep)
		buf = slices.Grow(buf, step)
		m, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+m]
		if err != nil {
			return 0, 0, nil, fmt.Errorf("cluster: short frame: %w", err)
		}
	}
	return typ, qid, buf, nil
}

// writeJSONFrame marshals v into a frame.
func writeJSONFrame(w io.Writer, typ byte, qid uint32, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeFrame(w, typ, qid, b)
}
