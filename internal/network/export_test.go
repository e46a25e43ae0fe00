package network

import (
	"repro/internal/message"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// KnotLane is one lane of a wait-for knot (see Knot).
type KnotLane struct {
	Node topology.NodeID
	Lane router.Lane
	// Front is the worm at the lane's front (nil when the lane is empty);
	// Owner the worm holding its route (nil when it holds none), and OutVC
	// the output VC of that route (-1 when it holds none or ejects).
	Front, Owner *message.Message
	OutVC        int
	// NoEscape marks an unrouted head of a worm that never faulted whose
	// Route offered adaptive channels and no escape (Decision.Fallback
	// empty: its e-cube port is faulty).
	NoEscape bool
}

// Knot builds the engine's lane wait-for graph as it stands between two
// Steps and returns its knot: the lanes from which no movable lane can be
// reached, in (node, lane) order. The edges are
//   - a buffered, unrouted head → the lanes holding its Route candidates
//     (the input lanes of the same router routed to them);
//   - a buffered lane routed to a network port at zero credits → the
//     downstream lane that output VC feeds;
//   - an empty lane holding a route → the upstream lane routed to the output
//     VC feeding it (the worm's next flit is there).
//
// Movable are a lane routed to ejection, a routed lane with a credit, a head
// with a free candidate or a Route outcome other than Progress, an empty
// lane no route holds, an empty injection lane (its stream feeds it) and an
// empty lane whose feeding output VC no upstream lane holds (its flits are
// on the link). Route is asked again for every unrouted head, which is pure
// for every algorithm but valiant's first call on a worm.
func Knot(nw *Network) []KnotLane {
	lanes := (nw.degree + 1) * nw.p.V
	idx := func(node topology.NodeID, l router.Lane) int32 { return int32(int(node)*lanes + int(l)) }
	total := len(nw.routers) * lanes
	movable := make([]bool, total)
	noEscape := make([]bool, total)
	rev := make([][]int32, total) // rev[b] lists the lanes waiting on b
	edge := func(a, b int32) { rev[b] = append(rev[b], a) }
	for id := range nw.routers {
		rt, node := &nw.routers[id], topology.NodeID(id)
		for l := range rt.In {
			lane, ivc := router.Lane(l), &rt.In[l]
			me := idx(node, lane)
			port, _ := rt.LanePortVC(lane)
			front, buffered := rt.Front(lane)
			switch {
			case !buffered && !rt.HasRoute(lane), !buffered && port >= nw.degree:
				movable[me] = true
			case !buffered:
				if up, h, ok := nw.feeder(node, lane); ok {
					edge(me, idx(up, h))
				} else {
					movable[me] = true
				}
			case rt.HasRoute(lane) && rt.ToEject(lane):
				movable[me] = true
			case rt.HasRoute(lane):
				out := topology.Port(ivc.OutPort)
				if rt.Out[rt.OutIndex(out, int(ivc.OutVC))].Credits > 0 {
					movable[me] = true
					break
				}
				lk := nw.linkFor(node, out)
				edge(me, idx(topology.NodeID(lk.dst()), nw.routers[lk.dst()].LaneOf(int(out.Opposite()), int(ivc.OutVC))))
			default:
				m := nw.pool.At(front.Ref())
				dec := nw.domain(node).alg.Route(node, m)
				if dec.Outcome != routing.Progress {
					movable[me] = true
					break
				}
				noEscape[me] = m.Mode == message.Adaptive && !m.Faulted && len(dec.Fallback) == 0
				for _, cands := range [][]routing.CandidateVC{dec.Preferred, dec.Fallback} {
					for _, c := range cands {
						if !rt.Out[rt.OutIndex(c.Port, c.VC)].Busy {
							movable[me] = true
						} else if h, ok := nw.holder(node, c.Port, c.VC); ok {
							edge(me, idx(node, h))
						}
					}
				}
			}
		}
	}
	// Everything that reaches a movable lane can move eventually: walk the
	// reversed edges out of the movable set.
	reach := make([]bool, total)
	var stack []int32
	for i, ok := range movable {
		if ok {
			reach[i] = true
			stack = append(stack, int32(i))
		}
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range rev[b] {
			if !reach[a] {
				reach[a] = true
				stack = append(stack, a)
			}
		}
	}
	var knot []KnotLane
	for i, ok := range reach {
		if ok {
			continue
		}
		node, lane := topology.NodeID(i/lanes), router.Lane(i%lanes)
		rt := &nw.routers[node]
		k := KnotLane{Node: node, Lane: lane, OutVC: -1, NoEscape: noEscape[i]}
		if f, ok := rt.Front(lane); ok {
			k.Front = nw.pool.At(f.Ref())
		}
		if rt.HasRoute(lane) {
			k.Owner = nw.pool.At(nw.routeOwner(node, lane))
			if !rt.ToEject(lane) {
				k.OutVC = int(rt.In[lane].OutVC)
			}
		}
		knot = append(knot, k)
	}
	return knot
}
