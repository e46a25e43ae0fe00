package network

import (
	"fmt"
	"testing"

	"repro/internal/message"
	"repro/internal/router"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestDerivedOwners holds routeOwner — the purge's only way to learn who
// holds a route — to the trace, after every Step of every scheduled golden
// cell, on one domain and on three (the walk upstream crosses domain
// bounds): every routed lane's derived owner is a live message whose head
// has reached that lane's node since the message last entered the network,
// going by its Inject and Hop events. The td2-lat3 cell keeps flits in
// flight on 3-cycle links, so empty routed lanes find their owner on the
// link as well as upstream.
func TestDerivedOwners(t *testing.T) {
	for _, c := range goldenMatrix {
		if c.sched == "" {
			continue
		}
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				empty := 0 // routed lanes whose owner was not at their front
				runGolden(t, c, workers, func(nw *Network) {
					rec := nw.p.Tracer.(*trace.Recorder)
					for id := range nw.routers {
						rt, node := &nw.routers[id], topology.NodeID(id)
						for l := range rt.In {
							lane := router.Lane(l)
							if !rt.HasRoute(lane) {
								continue
							}
							ref := nw.routeOwner(node, lane)
							if ref == message.NilRef || nw.pool.At(ref) == nil {
								t.Fatalf("cycle %d node %d lane %d: derived owner %d is no live message", nw.Now(), node, lane, ref)
							}
							if rt.Len(lane) == 0 {
								empty++
							}
							m := nw.pool.At(ref)
							if !headReached(rec.Events(m.ID), node) {
								t.Fatalf("cycle %d node %d lane %d: derived owner %d has not reached the node since it last entered the network: %v",
									nw.Now(), node, lane, m.ID, rec.Events(m.ID))
							}
						}
					}
				})
				if empty == 0 {
					t.Error("no routed lane was ever empty: the walk past the front was never exercised")
				}
			})
		}
	}
}

// headReached reports whether, in one message's events, the head reached
// node after the message's last Inject: injected there, or hopped there.
func headReached(evs []trace.Event, node topology.NodeID) bool {
	for i := len(evs) - 1; i >= 0; i-- {
		switch ev := evs[i]; ev.Kind {
		case trace.Hop:
			if ev.Node == node {
				return true
			}
		case trace.Inject:
			return ev.Node == node
		}
	}
	return false
}
