package fault

import (
	"fmt"
	"slices"

	"repro/internal/topology"
)

// Transition is one fault-state change of a dynamic run: a node or link
// failing or healing at a cycle. Link transitions always act on the
// bidirectional physical link (both channels), matching MarkLink.
type Transition struct {
	Cycle int64
	// Fail selects between failure (true) and repair (false).
	Fail bool
	// IsLink selects between a link transition (Link meaningful) and a node
	// transition (Node meaningful).
	IsLink bool
	Node   topology.NodeID
	Link   topology.ChannelID
}

func (tr Transition) String() string {
	op := "heal"
	if tr.Fail {
		op = "fail"
	}
	if tr.IsLink {
		return fmt.Sprintf("@%d %s link %v", tr.Cycle, op, tr.Link)
	}
	return fmt.Sprintf("@%d %s node %d", tr.Cycle, op, tr.Node)
}

// Apply performs one transition on the set, in place: the engine calls it
// strictly at its serial transition point, so between transitions every
// reader (routing, the planner, traffic sources) still sees a frozen Set.
// It reports whether the state actually changed: failing an already-faulty
// element or healing a healthy one is a no-op (false), so replayed traces
// are idempotent and a generative schedule's heal of a since-re-failed
// element cannot corrupt state. Link transitions on nonexistent channels
// (mesh edges) are rejected as no-ops too — parsers validate against the
// topology, so this is pure defence.
func (s *Set) Apply(tr Transition) bool {
	if tr.IsLink {
		ch := tr.Link
		if !s.t.Valid(ch.Src) || !s.t.HasLink(ch.Src, ch.Port.Dim(), ch.Port.Dir()) {
			return false
		}
		if tr.Fail {
			if s.LinkMarked(ch) {
				return false
			}
			s.MarkLink(ch.Src, ch.Port)
			return true
		}
		if !s.LinkMarked(ch) {
			return false
		}
		s.healLink(ch.Src, ch.Port)
		return true
	}
	if !s.t.Valid(tr.Node) {
		return false
	}
	if tr.Fail {
		if s.node[tr.Node] {
			return false
		}
		s.MarkNode(tr.Node)
		return true
	}
	if !s.node[tr.Node] {
		return false
	}
	s.healNode(tr.Node)
	return true
}

// Equal reports whether two fault sets over the same topology agree on
// every node and channel fault. Used by the net-effect property tests.
func Equal(a, b *Set) bool {
	return slices.Equal(a.node, b.node) && slices.Equal(a.link, b.link)
}
