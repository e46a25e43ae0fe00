package routing

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/topology"
)

// PlanarAdaptive is Chien & Kim's planar-adaptive routing for meshes,
// realised over the Software-Based machinery. Adaptivity is restricted to a
// sliding 2-D plane: at every hop the message may advance along d0, the
// lowest still-uncorrected dimension, or along d1, the next uncorrected
// dimension — never any other. Once d0 is corrected the plane slides up,
// so planes are visited in strictly increasing dimension order.
//
// Deadlock freedom comes from the increasing/decreasing virtual-channel
// split of the plane's second dimension: d1 hops taken while the message
// travels +d0 use the "increasing" VC bank, those taken while travelling
// -d0 the "decreasing" bank. Within one subnetwork all d0 hops share one
// direction, so a channel-dependency cycle would have to close inside a
// single d1 line, which minimal routing (no direction reversal on a mesh
// line) cannot do; first-dimension hops ride a third, dedicated bank. The
// discipline needs V >= 3 (one VC per bank) and a non-wrapping topology —
// on a torus the wraparound links re-close the rings and the argument
// fails, so construction is refused (the registry entry declares
// Topologies: mesh).
//
// Like Valiant and NegativeFirst it is a pure registry algorithm: fault
// absorptions hand the header to the unchanged SW-Based planner, and a
// message that has been absorbed once (Faulted) follows the planner's
// deterministic e-cube path, so delivery in connected fault patterns
// carries over without core edits.
type PlanarAdaptive struct {
	*Algorithm
}

// NewPlanarAdaptive builds planar-adaptive routing over the deterministic
// SW-Based base on a non-wrapping network. V >= 3: one VC bank per role
// (first-dimension, increasing, decreasing).
func NewPlanarAdaptive(t topology.Network, f *fault.Set, v int) (*PlanarAdaptive, error) {
	if t.Wraps() {
		return nil, fmt.Errorf("routing: planar-adaptive requires a non-wrapping (mesh) topology, got %s", t)
	}
	if v < 3 {
		return nil, fmt.Errorf("routing: planar-adaptive needs V >= 3 (first/increasing/decreasing banks), got %d", v)
	}
	base, err := NewDeterministic(t, f, v)
	if err != nil {
		return nil, err
	}
	return &PlanarAdaptive{Algorithm: base}, nil
}

// Name identifies the algorithm in reports.
func (pa *PlanarAdaptive) Name() string { return "planar-adaptive" }

// planarBanks splits V virtual channels into the three planar-adaptive
// banks: first-dimension [0, f), increasing [f, f+s), decreasing [f+s, v),
// each of size >= 1 for v >= 3 with the spare channels going to the
// first-dimension bank (it carries every message's mandatory progress).
func planarBanks(v int) (firstHi, incHi int) {
	s := v / 3
	return v - 2*s, v - s
}

// planarDims returns the two dimensions of the message's current adaptive
// plane: d0 the lowest uncorrected dimension, d1 the next (or -1), with
// their minimal directions. ok is false at the target.
func planarDims(t topology.Network, cur, target topology.NodeID) (d0 int, dir0 topology.Dir, d1 int, dir1 topology.Dir, ok bool) {
	d0, d1 = -1, -1
	for d := 0; d < t.N(); d++ {
		o := t.RingOffset(t.Coord(cur, d), t.Coord(target, d))
		if o == 0 {
			continue
		}
		dir := topology.Plus
		if o < 0 {
			dir = topology.Minus
		}
		if d0 < 0 {
			d0, dir0 = d, dir
		} else {
			d1, dir1 = d, dir
			break
		}
	}
	return d0, dir0, d1, dir1, d0 >= 0
}

// Route computes the planar-adaptive decision for msg's head flit at cur.
// Messages that have been absorbed (Faulted) defer to the deterministic
// base so the planner's header rewrites are honoured.
func (pa *PlanarAdaptive) Route(cur topology.NodeID, m *message.Message) Decision {
	if cur == m.Dst {
		return Decision{Outcome: Deliver}
	}
	if cur == m.Target() {
		return Decision{Outcome: ViaArrived}
	}
	if m.Faulted {
		return pa.Algorithm.Route(cur, m)
	}
	d0, dir0, d1, dir1, ok := planarDims(pa.t, cur, m.Target())
	if !ok {
		// Defensive: the Target checks above make this unreachable.
		return Decision{Outcome: ViaArrived}
	}
	firstHi, incHi := planarBanks(pa.v)
	dec := Decision{Outcome: Progress, Preferred: pa.pref[:0]}
	if port := topology.PortFor(d0, dir0); !pa.f.LinkFaulty(cur, port) {
		for vc := 0; vc < firstHi; vc++ {
			dec.Preferred = append(dec.Preferred, CandidateVC{Port: port, VC: vc})
		}
	}
	if d1 >= 0 {
		if port := topology.PortFor(d1, dir1); !pa.f.LinkFaulty(cur, port) {
			lo, hi := firstHi, incHi // increasing bank: travelling +d0
			if dir0 == topology.Minus {
				lo, hi = incHi, pa.v // decreasing bank
			}
			for vc := lo; vc < hi; vc++ {
				dec.Preferred = append(dec.Preferred, CandidateVC{Port: port, VC: vc})
			}
		}
	}
	if len(dec.Preferred) == 0 {
		// Every plane channel leads to a fault: absorb and let the
		// messaging layer replan around the region.
		return Decision{Outcome: AbsorbFault, BlockedDim: d0, BlockedDir: dir0}
	}
	pa.pref = dec.Preferred
	return dec
}

func init() {
	Register(Info{
		Name:        "planar-adaptive",
		MinV:        3,
		Description: "Chien&Kim planar-adaptive (sliding 2-D plane, inc/dec VC banks) over SW-Based routing",
		Aliases:     []string{"planar"},
		Topologies:  []string{"mesh"},
	}, func(t topology.Network, f *fault.Set, v int) (Router, error) {
		return NewPlanarAdaptive(t, f, v)
	})
}
