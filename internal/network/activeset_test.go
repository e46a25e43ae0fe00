package network

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestSchedulerSetsCoverWork checks, after every Step of every golden-matrix
// cell, the invariants that let the phases walk sets instead of scanning:
// a router buffering flits is in its domain's active set, its flit counter
// is the sum of its lane lengths, its active-lane set is exactly the
// non-empty lanes, a parked lane holds an unrouted head whose every candidate
// is busy and registered (checkBlocked), the request words
// are the transpose of the held routes, an output VC is busy exactly while
// one routed lane's route leads to it (what the purge's settleOutputs
// derives ownership from), a credit-parked lane and the output
// VC it waits on point at each other at zero credits, and a stalled
// software layer really can neither start a stream nor inject a flit. Both
// levels are walked in ascending order — the order of a dense nested scan —
// so a set that covers the work visits what the scan would, in the same
// order; and a parking that only ever skips work that could not have been
// done leaves no trace. Credit flow is conserved on every channel
// (checkCredits).
func TestSchedulerSetsCoverWork(t *testing.T) {
	for _, c := range goldenMatrix {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				parked, starved, stalled := 0, 0, 0
				var want []uint64 // request words, as the held routes dictate
				var holders []int // routes held on each output VC
				var staged []int  // checkCredits' scratch
				runGolden(t, c, workers, func(nw *Network) {
					staged = checkCredits(t, nw, staged)
					active := activeSet(nw)
					for id := range nw.routers {
						rt := &nw.routers[id]
						if rt.Buffered() && !active[id] {
							t.Fatalf("cycle %d node %d: buffered flits on a retired router", nw.Now(), id)
						}
						listed := 0
						for _, l := range rt.Lanes() {
							if rt.Len(l) == 0 {
								t.Fatalf("cycle %d node %d lane %d: empty, yet in the active-lane set", nw.Now(), id, l)
							}
							listed++
						}
						buffering, sum := 0, 0
						for l := range rt.In {
							lane := router.Lane(l)
							n := rt.Len(lane)
							sum += n
							if n > 0 {
								buffering++
							}
							if rt.Blocked(lane) {
								parked++
								if n == 0 || rt.HasRoute(lane) {
									t.Fatalf("cycle %d node %d lane %d: parked with %d flits, routed: %v", nw.Now(), id, l, n, rt.HasRoute(lane))
								}
								checkBlocked(t, nw, topology.NodeID(id), lane)
							}
						}
						if listed != buffering {
							t.Fatalf("cycle %d node %d: %d lanes buffer flits, the active-lane set holds %d of them", nw.Now(), id, buffering, listed)
						}
						if rt.Buffered() != (sum > 0) {
							t.Fatalf("cycle %d node %d: Buffered = %v, lanes hold %d", nw.Now(), id, rt.Buffered(), sum)
						}
						// The switch- and inject-side marks: every Step on the
						// routers about to be visited, every 16th on all of them
						// (a retired router keeps routes, request bits and marks).
						if !active[id] && nw.Now()&15 != 0 {
							continue
						}
						ports := rt.InjectionPort() + 1
						want = append(want[:0], make([]uint64, rt.Words()*ports)...)
						holders = append(holders[:0], make([]int, len(rt.Out))...)
						for l := range rt.In {
							lane, ivc := router.Lane(l), &rt.In[l]
							routed := rt.HasRoute(lane)
							if routed {
								want[l>>6*ports+int(ivc.OutPort)] |= 1 << (uint(l) & 63)
								if !rt.ToEject(lane) {
									holders[rt.OutIndex(topology.Port(ivc.OutPort), int(ivc.OutVC))]++
								}
							}
							if rt.Starved(lane) {
								starved++
								if !routed || rt.ToEject(lane) {
									t.Fatalf("cycle %d node %d lane %d: credit-parked, routed: %v, to eject: %v", nw.Now(), id, l, routed, rt.ToEject(lane))
								}
								if o := rt.Out[rt.OutIndex(topology.Port(ivc.OutPort), int(ivc.OutVC))]; o.Credits != 0 || !o.Waiting() || router.Lane(o.Holder) != lane {
									t.Fatalf("cycle %d node %d lane %d: credit-parked on output VC %+v", nw.Now(), id, l, o)
								}
							}
						}
						for i, w := range want {
							if got := rt.RequestWord(i/ports, i%ports); got != w {
								t.Fatalf("cycle %d node %d: request word %d of port %d is %#x, the held routes say %#x", nw.Now(), id, i/ports, i%ports, got, w)
							}
						}
						for o, out := range rt.Out {
							if out.Busy != (holders[o] > 0) || holders[o] > 1 {
								t.Fatalf("cycle %d node %d output VC %d: busy %v, held by %d routes", nw.Now(), id, o, out.Busy, holders[o])
							}
							if out.Waiting() && (!out.Busy || !rt.Starved(router.Lane(out.Holder))) {
								t.Fatalf("cycle %d node %d output VC %d: %+v, holder parked: %v", nw.Now(), id, o, out, rt.Starved(router.Lane(out.Holder)))
							}
						}
						if nw.soft[id] == softStalled {
							stalled++
							checkStalled(t, nw, topology.NodeID(id))
						}
					}
				})
				if strings.Contains(c.name, "saturated") && (parked == 0 || starved == 0 || stalled == 0) {
					t.Errorf("past saturation, yet lanes seen blocked: %d, lanes seen credit-parked: %d, software layers seen stalled: %d", parked, starved, stalled)
				}
			})
		}
	}
}

// checkCredits holds every output VC of every wired channel, dead ones
// included, to the credit-flow law: its credits, the flits buffered in the
// downstream lane it feeds, the credits staged back to it and the flits
// staged on it sum to the buffer depth. staged is scratch, returned for
// reuse.
func checkCredits(t *testing.T, nw *Network, staged []int) []int {
	t.Helper()
	v := nw.p.V
	if n := len(nw.links) * v; len(staged) != n {
		staged = make([]int, n)
	}
	clear(staged)
	for _, w := range nw.doms {
		for _, c := range w.credQ {
			staged[int(c.node)*nw.degree*v+int(c.out)]++
		}
		for _, a := range w.arrQ {
			ch := nw.arrivalChannel(a)
			_, vc := nw.routers[a.node].LanePortVC(a.lane)
			staged[(int(ch.Src)*nw.degree+int(ch.Port))*v+vc]++
		}
	}
	for i, lk := range nw.links {
		if lk == noLink {
			continue
		}
		node, port := topology.NodeID(i/nw.degree), topology.Port(i%nw.degree)
		rt, down := &nw.routers[node], &nw.routers[lk.dst()]
		for vc := 0; vc < v; vc++ {
			o := rt.OutIndex(port, vc)
			credits := int(rt.Out[o].Credits)
			held := down.Len(router.Lane(nw.back(port) + vc))
			if sum := credits + held + staged[i*v+vc]; sum != nw.p.BufDepth {
				t.Fatalf("cycle %d channel %v VC %d: %d credits + %d buffered downstream + %d staged = %d, want %d",
					nw.Now(), topology.ChannelID{Src: node, Port: port}, vc, credits, held, staged[i*v+vc], sum, nw.p.BufDepth)
			}
		}
	}
	return staged
}

// checkBlocked holds a parked head to what parking it claims: asked again,
// Route names candidates that are all busy, and the lane's registration
// holds each one's port bit and VC bit, so whichever is released first wakes
// it. (Asking is safe: the engine's own wasted looks are this very call.)
func checkBlocked(t *testing.T, nw *Network, node topology.NodeID, lane router.Lane) {
	t.Helper()
	rt := &nw.routers[node]
	front, _ := rt.Front(lane)
	if !front.IsHead() {
		t.Fatalf("cycle %d node %d lane %d: parked on a body flit", nw.Now(), node, lane)
	}
	dec := nw.domain(node).alg.Route(node, nw.pool.At(front.Ref()))
	if dec.Outcome != routing.Progress {
		t.Fatalf("cycle %d node %d lane %d: parked, yet Route says outcome %v", nw.Now(), node, lane, dec.Outcome)
	}
	for _, candidates := range [][]routing.CandidateVC{dec.Preferred, dec.Fallback} {
		for _, c := range candidates {
			o := rt.OutIndex(c.Port, c.VC)
			if !rt.Out[o].Busy {
				t.Fatalf("cycle %d node %d lane %d: parked with candidate output VC %d free", nw.Now(), node, lane, o)
			}
			if bit := router.WaitBit(int(c.Port), c.VC); rt.Waits(lane)&bit != bit {
				t.Fatalf("cycle %d node %d lane %d: parked, not registered for candidate output VC %d's port and VC bits %#x (waits %#x)", nw.Now(), node, lane, o, bit, rt.Waits(lane))
			}
		}
	}
}

// checkStalled holds a stalled software layer to what parking it claims:
// every stream's injection buffer is full, no re-injection is waiting out
// Δ, and the next eligible message, if there is one, has no free injection
// VC to start on (a dense scan, as startStreams did before it read the lane
// sets).
func checkStalled(t *testing.T, nw *Network, node topology.NodeID) {
	t.Helper()
	rt := &nw.routers[node]
	for _, s := range nw.streamsOf(node) {
		if lane := rt.LaneOf(rt.InjectionPort(), int(s.vc)); rt.Space(lane) > 0 {
			t.Fatalf("cycle %d node %d: stalled, yet the stream on injection VC %d has %d free slots", nw.Now(), node, s.vc, rt.Space(lane))
		}
	}
	if q := nw.reQ[node]; !q.Empty() {
		if _, at := nw.pool.Head(q); at > nw.Now() {
			t.Fatalf("cycle %d node %d: stalled while a re-injection waits out Δ until cycle %d", nw.Now(), node, at)
		}
	}
	if nw.nextQueue(node) == nil {
		return
	}
	for vc := 0; vc < nw.p.V; vc++ {
		if lane := rt.LaneOf(rt.InjectionPort(), vc); !rt.HasRoute(lane) && rt.Len(lane) == 0 && !nw.streaming(node, vc) {
			t.Fatalf("cycle %d node %d: stalled with a message to start and injection VC %d free", nw.Now(), node, vc)
		}
	}
}

// TestActiveSetDrainsWorklist checks the scheduler's bookkeeping: once the
// network is idle, no router may be left in the active set (drained routers
// must retire, or Step cost degenerates to a dense scan).
func TestActiveSetDrainsWorklist(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	alg, err := routing.New("det", tor, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	gen := poissonSource(tor, fs, 0.004, 16, alg.BaseMode(), traffic.NewUniform(fs), r.Split(1))
	col := metrics.NewCollector(0)
	nw := New(tor, fs, alg, gen, col, DefaultParams(4), r.Split(2))
	for nw.Now() < 2000 {
		nw.Step()
	}
	nw.StopGeneration()
	for !nw.Idle() && nw.Now() < 200_000 {
		nw.Step()
	}
	if !nw.Idle() {
		t.Fatal("network did not drain")
	}
	if n := activeRouters(nw); n != 0 {
		t.Fatalf("idle network still has %d routers in the active set", n)
	}
}

// activeRouters counts the routers in every domain's active set.
func activeRouters(nw *Network) int {
	n := 0
	for _, w := range nw.doms {
		for _, m := range w.act {
			n += bits.OnesCount64(m)
		}
	}
	return n
}
