package network

// Dynamic fault transitions. A scheduled run (Params.Schedule) applies
// fail/heal transitions at one fixed point in the cycle: after the clock
// advances, before traffic polling and every per-router phase. The point
// is serial in both engines — between cycles no worker goroutine exists —
// so transitions mutate state across domain boundaries freely, and the
// parallel engine stays bit-identical to the serial one (the commit-order
// contract extends to dynamic runs; TestScheduleParallelMatchesSerial
// holds it).
//
// A failure purges every worm occupying the failed component: its flits
// are pulled out of buffers, link pipelines and injection streams, its
// routes are dropped, and the whole message restarts from its source
// through the priority re-injection queue (counted as Reinjected) — unless
// either endpoint is down, in which case the message is counted Lost
// (routing assumes healthy destinations, so a dead-destination worm would
// circle until the heal). The purge only removes; settleOutputs then sets
// every output VC's ownership and credits from what survives. Heals mutate
// only the fault set: a healed component comes back empty, with full
// credits, because the purge left it that way when it failed.

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// applyTransitions drives the fault schedule for this cycle. No-op (two
// loads and a compare) for static runs.
func (nw *Network) applyTransitions() {
	if nw.sched == nil {
		return
	}
	changed := false
	for _, tr := range nw.sched.Advance(nw.now, nw.f) {
		if !nw.f.Apply(tr) {
			continue // no-op transition (replayed trace, stale heal)
		}
		changed = true
		nw.col.Transition(nw.now, tr.Fail)
		if tr.Fail {
			nw.purgeFailure(tr)
			nw.settleOutputs()
		}
	}
	if changed {
		nw.refreshRouting()
		// The fault set is an input of Route: every parked head must ask
		// again (see allocateLane). The purge and the settle rewrote credit
		// counts, buffers, queues and streams directly: every credit-parked
		// lane and every stalled software layer must look again too.
		for id := range nw.routers {
			nw.routers[id].Unblock()
			nw.routers[id].Resync()
			if nw.soft[id] == softStalled {
				nw.soft[id] = softRun
			}
		}
	}
}

// refreshRouting rebuilds fault-derived routing state (region index,
// healthy-node caches) in every algorithm instance after the shared fault
// set changed. Worker 0 holds the engine's instance; the rest are clones
// with their own scratch and their own index.
func (nw *Network) refreshRouting() {
	for _, w := range nw.doms {
		if fr, ok := w.alg.(routing.FaultRefresher); ok {
			fr.RefreshFaults()
		}
	}
}

// purgeFailure removes every worm occupying the component that just
// failed: its flits, routes, in-flight transfers and injection streams. It
// touches no output VC; settleOutputs derives those afterwards. The sweep
// is O(nodes × lanes) — transitions are rare events, so clarity wins over
// a reverse index.
func (nw *Network) purgeFailure(tr fault.Transition) {
	deadNode := topology.NodeID(-1)
	if !tr.IsLink {
		deadNode = tr.Node
	}

	// Pass 1: find the affected worms — every worm with state at the
	// failed node, holding a route into a dead channel, with flits in
	// flight on one, or (node failures) destined to the dead node. The
	// last class exists because routing assumes healthy destinations: a
	// worm bound for a dead node would circle until the heal, so it is
	// purged and lost wherever it is. A dead channel is one the fault set
	// calls faulty (LinkFaulty): one that failed earlier carries nothing,
	// since its own purge emptied it and Route never allocates a faulty
	// channel. No lane records who holds its route:
	// owners lists every routed lane's owner (routeOwner) in (node, lane)
	// order, derived here, while the flits it is read from are all in place.
	aff := make(map[message.Ref]bool)
	var owners []message.Ref
	dstDead := func(ref message.Ref) bool {
		return deadNode >= 0 && nw.pool.At(ref).Dst == deadNode
	}
	for id := range nw.routers {
		rt := &nw.routers[id]
		node := topology.NodeID(id)
		for l := range rt.In {
			lane, ivc := router.Lane(l), &rt.In[l]
			owner := message.NilRef
			if rt.HasRoute(lane) {
				owner = nw.routeOwner(node, lane)
				owners = append(owners, owner)
			}
			if node == deadNode {
				rt.Each(lane, func(f message.Flit) { aff[f.Ref()] = true })
				if owner != message.NilRef {
					aff[owner] = true
				}
				continue
			}
			if deadNode >= 0 {
				rt.Each(lane, func(f message.Flit) {
					if dstDead(f.Ref()) {
						aff[f.Ref()] = true
					}
				})
			}
			if owner != message.NilRef && !rt.ToEject(lane) && nw.f.LinkFaulty(node, topology.Port(ivc.OutPort)) {
				aff[owner] = true
			}
		}
	}
	for _, w := range nw.doms {
		for _, ev := range w.arrQ {
			if ch := nw.arrivalChannel(ev); nw.f.LinkFaulty(ch.Src, ch.Port) || dstDead(ev.flit.Ref()) {
				aff[ev.flit.Ref()] = true
			}
		}
	}
	if deadNode >= 0 {
		for id := range nw.nstreams {
			for _, s := range nw.streamsOf(topology.NodeID(id)) {
				if topology.NodeID(id) == deadNode || dstDead(s.ref) {
					aff[s.ref] = true
				}
			}
		}
	}

	// Pass 2: pull the affected worms' flits out of every buffer and drop
	// their routes. The walk meets the routed lanes in pass 1's order, and
	// only a lane's own turn clears its route, so the next routed lane is
	// always owners' next entry.
	for id := range nw.routers {
		rt := &nw.routers[id]
		for l := range rt.In {
			lane := router.Lane(l)
			removed := rt.FilterLane(lane, func(f message.Flit) bool { return aff[f.Ref()] })
			cleared := false
			if rt.HasRoute(lane) {
				owner := owners[0]
				owners = owners[1:]
				if aff[owner] {
					rt.ClearRoute(lane)
					cleared = true
				}
			}
			if removed > 0 || cleared {
				// A surviving worm's head may have surfaced; treat it
				// like an arrival at the end of the previous cycle.
				if nf, ok := rt.Front(lane); ok && nf.IsHead() && !rt.HasRoute(lane) {
					nw.holdHead(rt, lane, nw.now)
				}
			}
		}
	}

	// Pass 3: drop the affected worms' in-flight link transfers.
	for _, w := range nw.doms {
		w.arrQ = slices.DeleteFunc(w.arrQ, func(ev arrivalEvent) bool { return aff[ev.flit.Ref()] })
	}

	// Pass 4: the software layers shed doomed messages — everything queued
	// at the failed node, plus everything queued anywhere destined to it.
	// Queued fresh messages vanish silently (they never entered the
	// network, so they have no trace stream to terminate); absorbed
	// messages awaiting re-injection get their streams closed with a
	// Purge+Drop. Injection streams of affected worms disappear everywhere
	// — at the failed node and at any healthy node still trickling in a
	// worm that just lost flits to a dead channel.
	if deadNode >= 0 {
		for id := range nw.newQ {
			node := topology.NodeID(id)
			doomed := func(ref message.Ref) bool { return node == deadNode || dstDead(ref) }
			for _, ref := range nw.pool.FilterQueue(&nw.newQ[id], doomed) {
				nw.col.Lost(nw.pool.At(ref))
				nw.pool.Free(ref)
			}
			for _, ref := range nw.pool.FilterQueue(&nw.reQ[id], doomed) {
				m := nw.pool.At(ref)
				nw.trace(trace.Purge, m.ID, node)
				nw.trace(trace.Drop, m.ID, node)
				nw.col.Lost(m)
				nw.pool.Free(ref)
			}
		}
	}
	for id := range nw.nstreams {
		ss := nw.streamsOf(topology.NodeID(id))
		kept := ss[:0]
		for _, s := range ss {
			if !aff[s.ref] {
				kept = append(kept, s)
			}
		}
		nw.nstreams[id] = uint8(len(kept))
	}

	// Pass 5: finalise the affected worms in message-ID order (the
	// canonical deterministic order; map iteration is not). Salvageable
	// worms restart from their source with a rewound header through the
	// priority queue; worms whose source is down are lost.
	refs := make([]message.Ref, 0, len(aff))
	for ref := range aff {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool { return nw.pool.At(refs[i]).ID < nw.pool.At(refs[j]).ID })
	for _, ref := range refs {
		m := nw.pool.At(ref)
		nw.inFlight--
		nw.trace(trace.Purge, m.ID, m.Src)
		if nw.f.NodeFaulty(m.Src) || nw.f.NodeFaulty(m.Dst) {
			nw.trace(trace.Drop, m.ID, m.Src)
			nw.col.Lost(m)
			nw.pool.Free(ref)
			continue
		}
		m.ResetForRequeue(nw.baseMode)
		nw.col.Reinjected(m)
		nw.pool.Enqueue(&nw.reQ[m.Src], ref, nw.now+nw.p.Delta)
		nw.markSoft(m.Src)
	}
}

// routeOwner returns the worm holding the route of lane `lane` of node,
// which must hold one. No lane records its owner; the flits name it. A route
// lives from its head's allocation until its tail leaves, so while the lane
// buffers a flit the owner is its front's worm. An empty routed lane waits
// for the owner's next flit, which is either in flight to it — the first
// flit staged for the lane, since the output VC feeding it carries no later
// worm before the owner's tail — or still upstream: in the lane holding that
// output VC (feeder), whose owner is the same worm, or, for an injection
// lane, in the stream feeding it. Between Steps only, when every in-flight
// transfer waits in its receiver's domain queue.
func (nw *Network) routeOwner(node topology.NodeID, lane router.Lane) message.Ref {
	for {
		rt := &nw.routers[node]
		if f, ok := rt.Front(lane); ok {
			return f.Ref()
		}
		for _, ev := range nw.domain(node).arrQ {
			if topology.NodeID(ev.node) == node && ev.lane == lane {
				return ev.flit.Ref()
			}
		}
		if port, vc := rt.LanePortVC(lane); port >= nw.degree {
			for _, s := range nw.streamsOf(node) {
				if int(s.vc) == vc {
					return s.ref
				}
			}
		} else if up, upLane, ok := nw.feeder(node, lane); ok {
			node, lane = up, upLane
			continue
		}
		panic(fmt.Sprintf("network: routed lane %d of node %d is empty, and no flit of its owner is in flight to it or upstream of it", lane, node))
	}
}

// feeder returns the upstream end of network input lane `lane` of node: the
// neighbour across its port, and the neighbour's lane whose route holds the
// output VC feeding it — false when no lane holds that VC.
func (nw *Network) feeder(node topology.NodeID, lane router.Lane) (topology.NodeID, router.Lane, bool) {
	port, vc := nw.routers[node].LanePortVC(lane)
	up := topology.NodeID(nw.linkFor(node, topology.Port(port)).dst())
	l, ok := nw.holder(up, topology.Port(port).Opposite(), vc)
	return up, l, ok
}

// holder returns the lane of node whose route holds output VC (port, vc),
// read off the port's request words — false when none does. A VC is held
// by one route at a time.
func (nw *Network) holder(node topology.NodeID, port topology.Port, vc int) (router.Lane, bool) {
	rt := &nw.routers[node]
	for i := 0; i < rt.Words(); i++ {
		for m := rt.RequestWord(i, int(port)); m != 0; m &= m - 1 {
			if l := router.Lane(i<<6 + bits.TrailingZeros64(m)); int(rt.In[l].OutVC) == vc {
				return l, true
			}
		}
	}
	return 0, false
}

// arrivalChannel identifies the channel a staged link transfer is
// traveling on: the event is addressed to (node, input port), so it came
// from that port's neighbor through the paired output. Every staged
// transfer is a link transfer: injection applies its flit in place.
func (nw *Network) arrivalChannel(ev arrivalEvent) topology.ChannelID {
	port, _ := nw.routers[ev.node].LanePortVC(ev.lane)
	up := nw.linkFor(topology.NodeID(ev.node), topology.Port(port)).dst()
	return topology.ChannelID{Src: topology.NodeID(up), Port: topology.Port(port).Opposite()}
}

// settleOutputs sets every output VC of every wired channel from the lanes,
// routes and staged events a purge left: Busy while a routed lane whose route
// is not to ejection holds it, and credits by the credit-flow law — the
// buffer depth less the flits buffered in the downstream lane it feeds, the
// flits staged on it and the credits staged back to it. Unwired mesh-edge
// ports carry nothing and are never held, so they keep their full credits.
// The wakes a release would give are left to applyTransitions, which wakes
// every parked lane after any transition. Between Steps only, when every
// staged event waits in its receiver's domain queue.
func (nw *Network) settleOutputs() {
	for id := range nw.routers {
		rt := &nw.routers[id]
		for p := 0; p < nw.degree; p++ {
			port := topology.Port(p)
			lk := nw.linkFor(topology.NodeID(id), port)
			if lk == noLink {
				continue
			}
			down := &nw.routers[lk.dst()]
			for vc := 0; vc < nw.p.V; vc++ {
				o := &rt.Out[rt.OutIndex(port, vc)]
				o.Busy = false
				o.Credits = uint8(nw.p.BufDepth - down.Len(router.Lane(nw.back(port)+vc)))
			}
		}
		for l := range rt.In {
			if lane := router.Lane(l); rt.HasRoute(lane) && !rt.ToEject(lane) {
				rt.Out[rt.OutIndex(topology.Port(rt.In[l].OutPort), int(rt.In[l].OutVC))].Busy = true
			}
		}
	}
	// Each staged flit or credit takes one credit off its VC. Counts only
	// fall from here to the law's value, which is never negative.
	for _, w := range nw.doms {
		for _, ev := range w.arrQ {
			ch := nw.arrivalChannel(ev)
			up := &nw.routers[ch.Src]
			_, vc := up.LanePortVC(ev.lane)
			up.Out[up.OutIndex(ch.Port, vc)].Credits--
		}
		for _, c := range w.credQ {
			nw.routers[c.node].Out[c.out].Credits--
		}
	}
}
