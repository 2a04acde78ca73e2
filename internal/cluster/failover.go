package cluster

import (
	"errors"
	"slices"
)

// defaultStageBytes is the FailoverStageBytes default: how much of a
// replicated leg's result payload the coordinator holds back before
// committing it to the merge (and giving up replayability).
const defaultStageBytes = 8 << 20

// errLegStalled fails a leg whose connection delivered no frame within
// LegStallAfter. It counts against the node's health; if nothing
// of the leg reached the merge, the coordinator re-dispatches it to a
// standby replica, or once more to the same node when none is left.
var errLegStalled = errors.New("cluster: leg stalled: no frame progress within LegStallAfter")

// legStage buffers a replicated leg's results until the leg commits —
// its done trailer arrives, or the staged bytes exceed the budget —
// so a leg whose serving node dies mid-stream can be replayed on a
// standby replica without delivering any row or partial twice: until
// commit, nothing has reached the merge, and after commit a failure
// is final (runLeg checks committed before re-dispatching).
//
// It stages raw frame payloads, copied out of the connection's reused
// read buffer, and hands them on — 'R' payloads to be decoded, 'A'
// payloads to be merged — only at commit. No lock guards the fields:
// runLeg calls legStream synchronously, one dispatch at a time, and
// legStream delivers on the calling goroutine, so every delivery,
// commit and reset of a stage happens on runLeg's goroutine in program
// order.
type legStage struct {
	budget int64
	onRows func(payload []byte) error
	onAgg  func(payload []byte) error

	staged    []stagedFrame
	bytes     int64
	committed bool
}

// stagedFrame is one withheld payload: a row batch or, when agg is
// set, a partial-aggregate payload.
type stagedFrame struct {
	payload []byte
	agg     bool
}

// rows stages (or, once committed, passes through) one 'R' payload.
func (g *legStage) rows(payload []byte) error { return g.stage(payload, false) }

// agg stages (or passes through) one 'A' payload.
func (g *legStage) agg(payload []byte) error { return g.stage(payload, true) }

// stage withholds one payload. A budget overflow commits everything
// staged so far: memory stays bounded at the price of making the leg
// non-replayable. Only handing on can fail — a payload that does not
// decode or merge, or a consumer that stops — and that error aborts
// the leg like any delivery failure.
func (g *legStage) stage(payload []byte, agg bool) error {
	if g.committed {
		return g.deliver(stagedFrame{payload, agg})
	}
	g.staged = append(g.staged, stagedFrame{slices.Clone(payload), agg})
	g.bytes += int64(len(payload))
	if g.bytes >= g.budget {
		return g.commit()
	}
	return nil
}

func (g *legStage) deliver(f stagedFrame) error {
	if f.agg {
		return g.onAgg(f.payload)
	}
	return g.onRows(f.payload)
}

// commit releases everything staged to the merge and makes the leg
// final: from here on deliveries pass straight through and a failure
// can no longer be failed over.
func (g *legStage) commit() error {
	g.committed = true
	staged := g.staged
	g.staged = nil
	for _, f := range staged {
		if err := g.deliver(f); err != nil {
			return err
		}
	}
	return nil
}

// reset discards an uncommitted partial stream so the leg can be
// replayed from scratch on another replica. Callers must check
// committed first.
func (g *legStage) reset() {
	g.staged = nil
	g.bytes = 0
}
