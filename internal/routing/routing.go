// Package routing implements the routing algorithms of Safaei et al.
// (IPDPS 2006): dimension-order (e-cube) deterministic routing, Duato's
// Protocol fully adaptive routing, and on top of both the Software-Based
// fault-tolerant routing scheme extended to n-dimensional tori
// (SW-Based-nD).
//
// The split of responsibilities mirrors the paper's architecture:
//
//   - Route is the *router hardware*: a per-hop decision for the head flit.
//     It knows only the local channel fault states and the message header.
//     In a fault-free network it behaves exactly like e-cube (deterministic
//     mode) or Duato's fully adaptive protocol (adaptive mode).
//
//   - Plan is the *messaging layer software*: invoked when a message has
//     been absorbed because its outgoing channel leads to a fault. It
//     rewrites the header (direction reversal, orthogonal detours via
//     intermediate destinations) following the three-table scheme summarised
//     in the paper, and the message is then re-injected with priority.
//
// Messages route towards their current Target (top intermediate destination
// or final destination). Reaching an intermediate destination ejects the
// message to the local messaging layer, which pops the via and re-injects:
// every in-network worm therefore follows a plain e-cube (or plain Duato)
// path, which is what keeps the channel dependency graph acyclic (§4,
// "Deadlock freedom") — see internal/deadlock for the mechanical check.
package routing

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/topology"
)

// Outcome classifies the router's decision for a head flit.
type Outcome uint8

const (
	// Progress: the message can request the listed output virtual channels.
	Progress Outcome = iota
	// Deliver: the head is at its final destination; eject to the PE.
	Deliver
	// ViaArrived: the head is at an intermediate destination; eject to the
	// messaging layer, pop the via, re-inject.
	ViaArrived
	// AbsorbFault: every usable outgoing channel leads to a fault; eject to
	// the messaging layer and invoke Plan (Software-Based rerouting).
	AbsorbFault
)

// String returns the outcome's short lower-case name as used in event
// traces ("progress", "deliver", "via", "absorb").
func (o Outcome) String() string {
	switch o {
	case Progress:
		return "progress"
	case Deliver:
		return "deliver"
	case ViaArrived:
		return "via"
	case AbsorbFault:
		return "absorb"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// CandidateVC is one (output port, virtual channel) pair a head flit may
// request.
type CandidateVC struct {
	Port topology.Port
	VC   int
}

// Decision is the routing function's verdict for a head flit at a node.
type Decision struct {
	Outcome Outcome
	// Preferred virtual channels (adaptive channels for adaptive mode; the
	// dateline-classed channels for deterministic mode). The engine picks
	// uniformly at random among the free ones (paper assumption (e)).
	Preferred []CandidateVC
	// Fallback channels tried only when no Preferred channel is free: the
	// escape channel of Duato's protocol. Empty in deterministic mode.
	Fallback []CandidateVC
	// BlockedDim/BlockedDir describe the e-cube move that was blocked when
	// Outcome == AbsorbFault; they seed the rerouting planner.
	BlockedDim int
	BlockedDir topology.Dir
}

// Algorithm is a configured routing function bound to one topology, fault
// configuration and virtual-channel count. It is stateless with respect to
// messages (all per-message state lives in the header), but Route returns
// Decisions whose candidate slices alias per-Algorithm scratch storage
// (reused call to call so the hot path never allocates): a Decision is
// valid only until the next Route call on the same Algorithm, and one
// Algorithm must not be shared across concurrently running engines. The
// single-threaded engine and the test suite both consume each Decision
// before deciding again.
type Algorithm struct {
	t        topology.Network
	f        *fault.Set
	idx      *fault.Index
	v        int
	adaptive bool
	// wraps caches t.Wraps(): with wraparound links the dateline VC-class
	// discipline applies (two banks, two escape channels); without them
	// (mesh) every VC collapses into a single class.
	wraps   bool
	planner *Planner
	// pref/fall back the Preferred/Fallback slices of the Decision under
	// construction; see the aliasing contract above.
	pref, fall []CandidateVC
}

// NewDeterministic returns the SW-Based-nD algorithm over deterministic
// (e-cube) base routing. V is the number of virtual channels per physical
// channel; wrapping topologies (torus) require at least 2 for the dateline
// classes, meshes at least 1.
func NewDeterministic(t topology.Network, f *fault.Set, v int) (*Algorithm, error) {
	min := 1
	if t.Wraps() {
		min = 2
	}
	if v < min {
		return nil, fmt.Errorf("routing: deterministic routing on %s needs V >= %d, got %d", t, min, v)
	}
	return newAlgorithm(t, f, v, false), nil
}

// NewAdaptive returns the SW-Based-nD algorithm over Duato-protocol fully
// adaptive base routing. Wrapping topologies (torus) need V >= 3: two
// escape channels (dateline classes) plus at least one adaptive channel;
// meshes need V >= 2 (single escape channel).
func NewAdaptive(t topology.Network, f *fault.Set, v int) (*Algorithm, error) {
	min := 2
	if t.Wraps() {
		min = 3
	}
	if v < min {
		return nil, fmt.Errorf("routing: adaptive routing on %s needs V >= %d, got %d", t, min, v)
	}
	return newAlgorithm(t, f, v, true), nil
}

func newAlgorithm(t topology.Network, f *fault.Set, v int, adaptive bool) *Algorithm {
	a := &Algorithm{t: t, f: f, idx: fault.NewIndex(f), v: v, adaptive: adaptive, wraps: t.Wraps()}
	a.planner = &Planner{t: t, f: f, idx: a.idx}
	return a
}

// SetEscalation overrides the planner's heuristic-phase bound: after this
// many absorptions a message's next plan is computed exactly. Values < 1
// restore the default. Used by the ablation benchmarks.
func (a *Algorithm) SetEscalation(n int) { a.planner.escalateAfter = n }

// RefreshFaults rebuilds the fault-region index after a dynamic transition
// mutated the shared fault set (see fault.Set.Apply). The planner holds the
// same index, so both re-derive their view of the regions together.
func (a *Algorithm) RefreshFaults() {
	a.idx = fault.NewIndex(a.f)
	a.planner.idx = a.idx
}

// Name identifies the algorithm in reports.
func (a *Algorithm) Name() string {
	if a.adaptive {
		return "sw-based-adaptive"
	}
	return "sw-based-deterministic"
}

// Adaptive reports whether the base routing is Duato fully adaptive.
func (a *Algorithm) Adaptive() bool { return a.adaptive }

// BaseMode returns the header mode injected messages start in.
func (a *Algorithm) BaseMode() message.Mode {
	if a.adaptive {
		return message.Adaptive
	}
	return message.Deterministic
}

// V returns the configured virtual channel count per physical channel.
func (a *Algorithm) V() int { return a.v }

// Topology returns the bound network.
func (a *Algorithm) Topology() topology.Network { return a.t }

// Faults returns the bound fault configuration.
func (a *Algorithm) Faults() *fault.Set { return a.f }

// detVCs returns the virtual channels of the given dateline class for
// deterministic routing: the V channels are split into two banks,
// class 0 = [0, ceil(V/2)), class 1 = [ceil(V/2), V).
func detVCs(v, class int) (lo, hi int) {
	half := (v + 1) / 2
	if class == 0 {
		return 0, half
	}
	return half, v
}

// detVCRange returns the usable deterministic-mode VC bank for a dateline
// class on this algorithm's topology. Non-wrapping networks have no
// dateline, so the split disappears and every VC is usable — the mesh
// dividend of dropping the wraparound VC-class requirement.
func (a *Algorithm) detVCRange(class int) (lo, hi int) {
	if !a.wraps {
		return 0, a.v
	}
	return detVCs(a.v, class)
}

// adaptiveLow returns the first fully adaptive VC index: above the two
// dateline escape channels on wrapping topologies, above the single escape
// channel on meshes.
func (a *Algorithm) adaptiveLow() int {
	if !a.wraps {
		return 1
	}
	return adaptiveLowTorus
}

// Escape channel indices for adaptive routing on wrapping topologies:
// VC 0 carries dateline class 0, VC 1 class 1; VCs [2, V) are fully
// adaptive. Meshes have a single escape channel (VC 0) and adapt on [1, V).
const (
	escapeVC0        = 0
	escapeVC1        = 1
	adaptiveLowTorus = 2
)

// datelineClass computes the dateline virtual-channel class for a hop from
// cur along (dim, dir): class 1 on and after the wraparound crossing.
func (a *Algorithm) datelineClass(cur topology.NodeID, m *message.Message, dim int, dir topology.Dir) int {
	if m.Crossed[dim] || a.t.WrapsAround(a.t.Coord(cur, dim), dir) {
		return 1
	}
	return 0
}

// detNextMove returns the e-cube move (first unfinished dimension in
// increasing order) from cur towards target, honouring per-dimension
// direction overrides from the rerouting tables (nil means no overrides).
// ok is false when cur equals target.
func detNextMove(t topology.Network, cur, target topology.NodeID, override *[message.MaxDims]topology.Dir) (dim int, dir topology.Dir, ok bool) {
	for d := 0; d < t.N(); d++ {
		c, tc := t.Coord(cur, d), t.Coord(target, d)
		if c == tc {
			continue
		}
		if override != nil && override[d] != 0 {
			return d, override[d], true
		}
		if o := t.RingOffset(c, tc); o < 0 {
			return d, topology.Minus, true
		}
		return d, topology.Plus, true
	}
	return 0, 0, false
}

// Route computes the routing decision for msg's head flit at node cur.
func (a *Algorithm) Route(cur topology.NodeID, m *message.Message) Decision {
	if cur == m.Dst {
		return Decision{Outcome: Deliver}
	}
	if cur == m.Target() {
		return Decision{Outcome: ViaArrived}
	}
	if a.adaptive && !m.Faulted {
		return a.routeAdaptive(cur, m)
	}
	return a.routeDeterministic(cur, m)
}

// routeDeterministic is the decision for the e-cube move from cur: absorb
// if its link is faulty, else progress on every VC of the move's dateline
// class.
func (a *Algorithm) routeDeterministic(cur topology.NodeID, m *message.Message) Decision {
	dim, dir, ok := detNextMove(a.t, cur, m.Target(), &m.DirOverride)
	if !ok {
		// Defensive: Target checks above make this unreachable.
		return Decision{Outcome: ViaArrived}
	}
	port := topology.PortFor(dim, dir)
	if a.f.LinkFaulty(cur, port) {
		return Decision{Outcome: AbsorbFault, BlockedDim: dim, BlockedDir: dir}
	}
	class := a.datelineClass(cur, m, dim, dir)
	lo, hi := a.detVCRange(class)
	a.pref = a.pref[:0]
	for vc := lo; vc < hi; vc++ {
		a.pref = append(a.pref, CandidateVC{Port: port, VC: vc})
	}
	return Decision{Outcome: Progress, Preferred: a.pref}
}

func (a *Algorithm) routeAdaptive(cur topology.NodeID, m *message.Message) Decision {
	target := m.Target()
	var dec Decision
	dec.Outcome = Progress
	dec.Preferred = a.pref[:0]
	anyProfitable := false
	// Adaptive channels on every healthy minimal-progress port.
	for d := 0; d < a.t.N(); d++ {
		c, tc := a.t.Coord(cur, d), a.t.Coord(target, d)
		if c == tc {
			continue
		}
		o := a.t.RingOffset(c, tc)
		dirs := make([]topology.Dir, 0, 2)
		if o > 0 {
			dirs = append(dirs, topology.Plus)
		} else {
			dirs = append(dirs, topology.Minus)
		}
		if a.t.BothMinimal(cur, target, d) {
			dirs = append(dirs, dirs[0].Opposite())
		}
		for _, dir := range dirs {
			port := topology.PortFor(d, dir)
			if a.f.LinkFaulty(cur, port) {
				continue
			}
			anyProfitable = true
			for vc := a.adaptiveLow(); vc < a.v; vc++ {
				dec.Preferred = append(dec.Preferred, CandidateVC{Port: port, VC: vc})
			}
		}
	}
	// Escape channel: the e-cube move, if healthy.
	edim, edir, ok := detNextMove(a.t, cur, target, nil)
	if ok {
		eport := topology.PortFor(edim, edir)
		if !a.f.LinkFaulty(cur, eport) {
			vc := escapeVC0
			if a.datelineClass(cur, m, edim, edir) == 1 {
				vc = escapeVC1
			}
			a.fall = append(a.fall[:0], CandidateVC{Port: eport, VC: vc})
			dec.Fallback = a.fall
			anyProfitable = true
		}
		if !anyProfitable {
			// "...a message is delivered to the current node when all
			// available paths are faulty" (§5).
			return Decision{Outcome: AbsorbFault, BlockedDim: edim, BlockedDir: edir}
		}
	}
	a.pref = dec.Preferred
	return dec
}

// Plan invokes the messaging-layer rerouting planner for a message absorbed
// at cur because its move along (blockedDim, blockedDir) leads to a fault.
// The header is rewritten in place; the caller re-injects the message. It
// reports false when no route exists (fault pattern disconnects the
// destination), in which case the caller should drop the message.
func (a *Algorithm) Plan(cur topology.NodeID, m *message.Message, blockedDim int, blockedDir topology.Dir) bool {
	return a.planner.Plan(cur, m, blockedDim, blockedDir)
}
