// Package trace records per-message event streams from the simulation
// engine: hops, absorptions, via stops, re-injections and deliveries. It
// serves two purposes: debugging (inspect exactly what one message did) and
// deep invariant testing (assert engine-level properties like "no flit ever
// enters a faulty node" over whole runs).
package trace

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/topology"
)

// Kind enumerates traceable events.
type Kind uint8

const (
	// Inject: a worm's head entered the network at Node (first injection or
	// re-injection).
	Inject Kind = iota
	// Hop: a head flit traversed a link into Node.
	Hop
	// AbsorbStart: routing decided to eject the worm at Node due to a fault.
	AbsorbStart
	// ViaStop: the worm fully ejected at an intermediate destination.
	ViaStop
	// FaultStop: the worm fully ejected after a fault absorption.
	FaultStop
	// Deliver: the tail flit reached the destination PE at Node.
	Deliver
	// Drop: the message was discarded as unroutable.
	Drop
	// Purge: a dynamic fault transition forcibly removed the worm from the
	// network; its in-flight flits were discarded. Node is where the worm
	// continues — its source on a requeue-for-reinjection (a later Inject
	// there follows), or the point of loss when the worm could not be
	// salvaged (a Drop there follows). Appended after Drop: Kind values are
	// pinned by golden trace hashes and must never renumber.
	Purge
)

// String returns the event kind's short lower-case name as written in
// trace dumps ("inject", "hop", "absorb", ...).
func (k Kind) String() string {
	switch k {
	case Inject:
		return "inject"
	case Hop:
		return "hop"
	case AbsorbStart:
		return "absorb"
	case ViaStop:
		return "via"
	case FaultStop:
		return "fault-stop"
	case Deliver:
		return "deliver"
	case Drop:
		return "drop"
	case Purge:
		return "purge"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one step in a message's life.
type Event struct {
	Cycle int64
	Msg   uint64
	Kind  Kind
	Node  topology.NodeID
}

// Tracer receives events from the engine. Implementations must be cheap;
// the engine calls them inline.
type Tracer interface {
	Trace(ev Event)
}

// Recorder retains every event, grouped by message, for post-run assertions.
type Recorder struct {
	byMsg map[uint64][]Event
	count int
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{byMsg: make(map[uint64][]Event)}
}

// Trace implements Tracer.
func (r *Recorder) Trace(ev Event) {
	r.byMsg[ev.Msg] = append(r.byMsg[ev.Msg], ev)
	r.count++
}

// Events returns the event stream of one message in arrival order.
func (r *Recorder) Events(msg uint64) []Event { return r.byMsg[msg] }

// Messages returns the number of distinct traced messages.
func (r *Recorder) Messages() int { return len(r.byMsg) }

// All returns every event, grouped by message in ascending message-ID
// order (within a message, arrival order). The ordering is deterministic,
// which makes All suitable for whole-run equivalence assertions.
func (r *Recorder) All() []Event {
	out := make([]Event, 0, r.count)
	for _, id := range r.ids() {
		out = append(out, r.byMsg[id]...)
	}
	return out
}

// ids returns the traced message IDs in ascending order.
func (r *Recorder) ids() []uint64 {
	ids := make([]uint64, 0, len(r.byMsg))
	for id := range r.byMsg {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Count returns the total number of events.
func (r *Recorder) Count() int { return r.count }

// Render formats one message's history for debugging.
func (r *Recorder) Render(t topology.Network, msg uint64) string {
	evs := r.byMsg[msg]
	if len(evs) == 0 {
		return fmt.Sprintf("msg#%d: no events\n", msg)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "msg#%d:\n", msg)
	for _, ev := range evs {
		fmt.Fprintf(&b, "  @%-8d %-10s %s\n", ev.Cycle, ev.Kind, t.FormatNode(ev.Node))
	}
	return b.String()
}

// Verify checks structural invariants of every traced message's history:
//
//   - the stream starts with Inject and ends with Deliver or Drop,
//   - consecutive Hop events visit adjacent nodes,
//   - every software stop is followed by a re-Inject at the same node,
//   - a Purge teleports the worm to the recorded node (its source when
//     requeued, the loss point otherwise) — later events continue there,
//   - cycles are non-decreasing.
//
// Messages are checked in ascending ID order; it returns the first
// violation found, or nil.
func (r *Recorder) Verify(t topology.Network) error {
	for _, id := range r.ids() {
		evs := r.byMsg[id]
		if evs[0].Kind != Inject {
			return fmt.Errorf("msg#%d: first event %v, want inject", id, evs[0].Kind)
		}
		last := evs[len(evs)-1]
		if last.Kind != Deliver && last.Kind != Drop {
			return fmt.Errorf("msg#%d: last event %v, want deliver/drop", id, last.Kind)
		}
		cur := evs[0].Node
		for i := 1; i < len(evs); i++ {
			ev := evs[i]
			if ev.Cycle < evs[i-1].Cycle {
				return fmt.Errorf("msg#%d: time went backwards at event %d", id, i)
			}
			switch ev.Kind {
			case Hop:
				if t.Distance(cur, ev.Node) != 1 {
					return fmt.Errorf("msg#%d: hop %s -> %s not adjacent",
						id, t.FormatNode(cur), t.FormatNode(ev.Node))
				}
				cur = ev.Node
			case Purge:
				// The worm was forcibly removed mid-flight; it resumes
				// (or is dropped) wherever the engine said, with no
				// adjacency relation to its pre-purge position.
				cur = ev.Node
			case Inject, AbsorbStart, ViaStop, FaultStop, Deliver, Drop:
				if ev.Node != cur {
					return fmt.Errorf("msg#%d: %v at %s but worm is at %s",
						id, ev.Kind, t.FormatNode(ev.Node), t.FormatNode(cur))
				}
			}
		}
	}
	return nil
}
