package routing

import (
	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/topology"
)

// NegativeFirst is the negative-first turn-model routing discipline
// realised over the Software-Based machinery: a message first takes every
// minimal hop whose ring direction is negative (in ascending dimension
// order), then every positive hop. Forbidding the positive→negative turns
// is what makes the turn model deadlock-free in meshes; on the torus the
// per-dimension dateline virtual-channel classes handle the wraparound
// edges exactly as they do for e-cube.
//
// Like Valiant, it is a pure registry algorithm: fault absorptions hand
// the header to the unchanged SW-Based planner, and a message that has
// been absorbed once (Faulted) follows the planner's deterministic e-cube
// path with its direction overrides — so the fault-tolerance and delivery
// guarantees of the base scheme carry over without core edits.
type NegativeFirst struct {
	*Algorithm
}

// NewNegativeFirst builds negative-first routing over the deterministic
// SW-Based base (V >= 2 for the torus dateline classes).
func NewNegativeFirst(t topology.Network, f *fault.Set, v int) (*NegativeFirst, error) {
	base, err := NewDeterministic(t, f, v)
	if err != nil {
		return nil, err
	}
	return &NegativeFirst{Algorithm: base}, nil
}

// Name identifies the algorithm in reports.
func (nf *NegativeFirst) Name() string { return "negative-first" }

// negFirstMove returns the next negative-first minimal move from cur
// towards target: the first dimension (ascending) whose minimal direction
// is Minus, else the first needing Plus. ok is false at the target.
func negFirstMove(t topology.Network, cur, target topology.NodeID) (dim int, dir topology.Dir, ok bool) {
	posDim := -1
	for d := 0; d < t.N(); d++ {
		c, tc := t.Coord(cur, d), t.Coord(target, d)
		if c == tc {
			continue
		}
		if t.RingOffset(c, tc) < 0 {
			return d, topology.Minus, true
		}
		if posDim < 0 {
			posDim = d
		}
	}
	if posDim < 0 {
		return 0, 0, false
	}
	return posDim, topology.Plus, true
}

// Route computes the negative-first decision for msg's head flit at cur.
// Messages that have been absorbed (Faulted) defer to the deterministic
// base so the planner's direction overrides and via chains are honoured.
func (nf *NegativeFirst) Route(cur topology.NodeID, m *message.Message) Decision {
	if cur == m.Dst {
		return Decision{Outcome: Deliver}
	}
	if cur == m.Target() {
		return Decision{Outcome: ViaArrived}
	}
	if m.Faulted {
		return nf.Algorithm.Route(cur, m)
	}
	dim, dir, ok := negFirstMove(nf.t, cur, m.Target())
	if !ok {
		// Defensive: the Target checks above make this unreachable.
		return Decision{Outcome: ViaArrived}
	}
	return nf.moveAlong(cur, m, dim, dir)
}

func init() {
	Register(Info{
		Name:        "negative-first",
		MinV:        2,
		MinVNoWrap:  1,
		Description: "turn-model negative-first (all minus-direction hops before plus) over SW-Based routing",
		Aliases:     []string{"negfirst"},
	}, func(t topology.Network, f *fault.Set, v int) (Router, error) {
		return NewNegativeFirst(t, f, v)
	})
}
