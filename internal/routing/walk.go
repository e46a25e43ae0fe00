package routing

import (
	"encoding/binary"
	"fmt"

	"repro/internal/message"
	"repro/internal/topology"
)

// WalkResult summarises one contention-free traversal of the routing
// algorithm (see Walk).
type WalkResult struct {
	// Hops is the number of link traversals.
	Hops int
	// Stops is the number of software-layer stops (fault absorptions, which
	// the message counts itself, plus intermediate-destination arrivals).
	Stops int
	// Delivered reports whether the walk reached the destination within
	// the step budget.
	Delivered bool
}

// Walk drives a message from its source to its destination assuming zero
// contention: Route decides, the walk takes the first candidate (Hop), and
// software stops run the planner exactly as the engine's messaging layer
// does (SoftwareStop). It is the algorithm-level executable semantics of
// the livelock analysis and the test suite; internal/deadlock runs the
// same two steps over every candidate.
func Walk(a Router, m *message.Message, maxSteps int) WalkResult {
	var res WalkResult
	cur, t := m.Src, a.Topology()
	for step := 0; step < maxSteps; step++ {
		dec := a.Route(cur, m)
		switch dec.Outcome {
		case Deliver:
			res.Delivered = true
			return res
		case Progress:
			cand := dec.Preferred
			if len(cand) == 0 {
				cand = dec.Fallback
			}
			if len(cand) == 0 {
				return res
			}
			cur = Hop(t, cur, m, cand[0].Port)
			res.Hops++
		default:
			if !SoftwareStop(a, cur, m, dec) {
				return res // unroutable; Delivered stays false
			}
			res.Stops++
		}
	}
	return res
}

// Hop moves the worm's head from cur through port and returns the node it
// reaches; crossing a wraparound edge marks the dimension's dateline.
func Hop(t topology.Network, cur topology.NodeID, m *message.Message, port topology.Port) topology.NodeID {
	if t.WrapsAround(t.Coord(cur, port.Dim()), port.Dir()) {
		m.Crossed[port.Dim()] = true
	}
	return t.Neighbor(cur, port.Dim(), port.Dir())
}

// SoftwareStop is the messaging layer's half of a ViaArrived or AbsorbFault
// decision at cur: pop the via or replan, then reset the header, because
// the worm re-injected is a fresh one (which is what cuts dependency
// chains at a stop, §4). It reports false when the planner finds no route.
func SoftwareStop(a Router, cur topology.NodeID, m *message.Message, dec Decision) bool {
	if dec.Outcome == ViaArrived {
		m.PopViasAt(cur)
	} else if !a.Plan(cur, m, dec.BlockedDim, dec.BlockedDir) {
		return false
	}
	m.ResetForReinjection()
	return true
}

// WormState is a comparable snapshot of a worm's position and every header
// field Route and Plan read: the memo key of an exhaustive exploration. The
// ID is left out so that worms share states; only a worm's first decision
// may depend on it (valiant's intermediate), and that one sets Detoured.
type WormState struct {
	at, dst           topology.NodeID
	via               string
	absorptions       int
	faulted, detoured bool
	dirOverride       [message.MaxDims]topology.Dir
	reversed, crossed [message.MaxDims]bool
}

// Snapshot returns the state of m with its head at cur.
func Snapshot(cur topology.NodeID, m *message.Message) WormState {
	var via []byte
	for _, v := range m.Via {
		via = binary.AppendUvarint(via, uint64(v))
	}
	return WormState{cur, m.Dst, string(via), m.Absorptions, m.Faulted, m.Detoured, m.DirOverride, m.Reversed, m.Crossed}
}

// EachPair calls fn with a fresh one-flit message (IDs count up from 0)
// for every ordered pair of distinct healthy nodes of the algorithm's
// network. Routing never reads a message's length, so one flit stands for
// any.
func EachPair(a Router, fn func(m *message.Message)) {
	healthy, id := a.Faults().HealthyNodes(), uint64(0)
	for _, src := range healthy {
		for _, dst := range healthy {
			if src != dst {
				fn(message.New(id, src, dst, 1, a.Topology().N(), a.BaseMode(), 0))
				id++
			}
		}
	}
}

// LivelockReport is the exhaustive bound check behind §4's livelock-freedom
// discussion: every healthy ordered (src, dst) pair is walked and the
// worst-case misrouting quantified.
type LivelockReport struct {
	// Pairs walked.
	Pairs int
	// Undelivered counts pairs that failed the step budget (must be 0 for
	// connected fault patterns).
	Undelivered int
	// MaxStops and MaxHops are worst cases over all pairs.
	MaxStops, MaxHops int
	// MeanStops and MeanHops are averaged over all pairs.
	MeanStops, MeanHops float64
	// WorstSrc and WorstDst identify the pair attaining MaxStops.
	WorstSrc, WorstDst topology.NodeID
}

// AnalyzeLivelock walks every healthy ordered pair of the algorithm's
// network, each within a step budget of 40 per node.
func AnalyzeLivelock(a Router) LivelockReport {
	maxSteps := 40 * a.Topology().Nodes()
	var rep LivelockReport
	var totStops, totHops int
	EachPair(a, func(m *message.Message) {
		res := Walk(a, m, maxSteps)
		rep.Pairs++
		if !res.Delivered {
			rep.Undelivered++
			return
		}
		totStops += res.Stops
		totHops += res.Hops
		if res.Stops > rep.MaxStops {
			rep.MaxStops = res.Stops
			rep.WorstSrc, rep.WorstDst = m.Src, m.Dst
		}
		if res.Hops > rep.MaxHops {
			rep.MaxHops = res.Hops
		}
	})
	delivered := rep.Pairs - rep.Undelivered
	if delivered > 0 {
		rep.MeanStops = float64(totStops) / float64(delivered)
		rep.MeanHops = float64(totHops) / float64(delivered)
	}
	return rep
}

// String renders the report as a one-line summary naming the worst
// source→destination pair.
func (r LivelockReport) String() string {
	return fmt.Sprintf("pairs=%d undelivered=%d stops(max=%d mean=%.3f) hops(max=%d mean=%.2f) worst=%d->%d",
		r.Pairs, r.Undelivered, r.MaxStops, r.MeanStops, r.MaxHops, r.MeanHops, r.WorstSrc, r.WorstDst)
}
