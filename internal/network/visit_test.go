package network

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// referenceSwitch is the arbiter's specification as a dense scan over the
// router's lanes: the lanes that eject this cycle, the lanes granted a
// network output channel (in port order) and every arbitration pointer
// afterwards. It reads credit counts, never the starved set.
func referenceSwitch(rt *router.Router) (eject, grant []router.Lane, rr []uint16) {
	rr = slices.Clone(rt.RROut)
	cands := make([][]router.Lane, len(rr))
	for l := range rt.In {
		lane, ivc := router.Lane(l), &rt.In[l]
		switch {
		case rt.Len(lane) == 0 || !rt.HasRoute(lane):
		case rt.ToEject(lane):
			eject = append(eject, lane)
		default:
			cands[ivc.OutPort] = append(cands[ivc.OutPort], lane)
		}
	}
	for p, c := range cands {
		for i := range c {
			k := (int(rr[p]) + i) % len(c)
			if ivc := &rt.In[c[k]]; rt.Out[rt.OutIndex(topology.Port(p), int(ivc.OutVC))].Credits > 0 {
				grant = append(grant, c[k])
				rr[p] = uint16((k + 1) % len(c))
				break
			}
		}
	}
	return eject, grant, rr
}

// TestArbiterMatchesReference drives one router through random switch
// states — any subset of lanes buffered, routed to ejection or to a random
// output VC, credits 0..2, arbitration pointers anywhere — on a one-word
// and a two-word geometry, and holds every visit to referenceSwitch: the
// same lanes pop, in the same order, and the pointers agree. Every third
// state populates a lane or two only, so the visit's single-requester path
// (switchOne) answers to the same reference. Each state is visited three
// times with random credits returned in between, so lanes parked on one
// visit are woken (or not) before the next; after every visit a parked
// lane must really be out of credit.
func TestArbiterMatchesReference(t *testing.T) {
	const node, msgLen = topology.NodeID(5), 4
	for _, v := range []int{3, 16} {
		t.Run(fmt.Sprintf("v=%d", v), func(t *testing.T) {
			tor := topology.New(4, 2)
			fs := fault.NewSet(tor)
			alg, err := routing.New("adaptive", tor, fs, v)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(uint64(v))
			parked, woken, lone := 0, 0, 0
			for trial := 0; trial < 400; trial++ {
				nw := New(tor, fs, alg, nil, metrics.NewCollector(0), DefaultParams(v), rng.New(1))
				w, rt := nw.doms[0], &nw.routers[node]
				for p := range rt.RROut {
					rt.RROut[p] = uint16(r.Intn(len(rt.In)))
				}
				outs := r.Perm(len(rt.Out)) // an output VC has one holder
				for l := range rt.In {
					lane, ivc := router.Lane(l), &rt.In[l]
					if trial%3 == 0 && r.Intn(len(rt.In)) > 1 {
						continue // a sparse state
					}
					m := nw.pool.New(uint64(l), 0, 10, msgLen, alg.BaseMode(), 0)
					m.Pending = message.StopDeliver
					for i, n := 0, r.Intn(3); i < n; i++ {
						// Body flits mostly, so unrouted lanes give the route
						// step nothing to do; a tail now and then on routed ones.
						seq := 1 + r.Intn(msgLen-2)
						if i == n-1 && r.Intn(4) == 0 {
							seq = msgLen - 1
						}
						rt.PushLane(lane, message.MakeFlit(nw.pool.Adopt(m), seq, msgLen))
					}
					if r.Intn(4) == 0 {
						continue // unrouted
					}
					if l >= len(outs) || r.Intn(5) == 0 {
						ivc.OutPort = uint8(rt.EjectPort())
					} else {
						o := outs[l]
						ivc.OutPort, ivc.OutVC = uint8(o/v), uint8(o%v)
						rt.Out[o].Busy = true
						rt.Out[o].Credits = uint8(r.Intn(3))
					}
					rt.SetRoute(lane)
				}
				for round := 0; round < 3; round++ {
					eject, grant, rr := referenceSwitch(rt)
					want := make([]int, len(rt.In))
					for l := range rt.In {
						want[l] = rt.Len(router.Lane(l))
					}
					var flits []message.Flit
					for _, l := range grant {
						f, _ := rt.Front(l)
						flits = append(flits, f)
						want[l]--
					}
					for _, l := range eject {
						want[l]--
					}
					if len(eject)+len(grant) > 0 && rt.Words() == 1 && bits.OnesCount64(rt.SwitchWord(0)) == 1 {
						lone++
					}
					w.outArr[0] = w.outArr[0][:0]
					w.visit(node)
					for l := range rt.In {
						if got := rt.Len(router.Lane(l)); got != want[l] {
							t.Fatalf("trial %d round %d lane %d: %d flits left, reference says %d (eject %v, grant %v)", trial, round, l, got, want[l], eject, grant)
						}
					}
					if !slices.Equal(rt.RROut, rr) {
						t.Fatalf("trial %d round %d: RROut = %v, reference says %v", trial, round, rt.RROut, rr)
					}
					staged := w.outArr[0]
					if len(staged) != len(flits) {
						t.Fatalf("trial %d round %d: %d transfers staged, reference grants %d", trial, round, len(staged), len(flits))
					}
					for i, a := range staged {
						if a.flit != flits[i] {
							t.Fatalf("trial %d round %d: transfer %d carries %v, reference says %v", trial, round, i, a.flit, flits[i])
						}
					}
					for l := range rt.In {
						if lane := router.Lane(l); rt.Starved(lane) {
							parked++
							if o := rt.OutIndex(topology.Port(rt.In[l].OutPort), int(rt.In[l].OutVC)); rt.Out[o].Credits != 0 {
								t.Fatalf("trial %d round %d lane %d: parked on a VC with %d credits", trial, round, l, rt.Out[o].Credits)
							}
						}
					}
					for o := range rt.Out {
						if rt.Out[o].Busy && r.Intn(3) == 0 {
							if rt.Out[o].Waiting() {
								woken++
							}
							rt.Credit(o)
						}
					}
				}
			}
			if parked == 0 || woken == 0 || (v == 3 && lone == 0) {
				t.Fatalf("%d lanes seen parked, %d woken, %d lone requesters moved: the states do not reach every path", parked, woken, lone)
			}
		})
	}
}

// TestSoftFlagCoversSoftwareLayer holds the software-layer occupancy flag
// to its contract on a static, a Delta > 0 and an mtbf run, serial and on
// three domains: after every Step a non-empty queue or stream implies a
// raised flag and a raised flag implies an active router; and the flag
// outlives an emptied software layer (the last stream flit, a purged queue)
// by one visit, never longer — one Step past Idle() the active set is empty
// and every flag is down.
func TestSoftFlagCoversSoftwareLayer(t *testing.T) {
	for _, name := range []string{"torus-det-faulted", "torus-det-delta5", "torus-adaptive-mtbf"} {
		c := goldenCell(t, name)
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				var last *Network
				raised := 0
				runGolden(t, c, workers, func(nw *Network) {
					last = nw
					active := activeSet(nw)
					for id, st := range nw.soft {
						up := st != softIdle
						occupied := !nw.newQ[id].Empty() || !nw.reQ[id].Empty() || nw.nstreams[id] > 0
						if occupied && !up {
							t.Fatalf("cycle %d node %d: software layer occupied, flag down", nw.Now(), id)
						}
						if up && !active[id] {
							t.Fatalf("cycle %d node %d: flag raised on a retired router", nw.Now(), id)
						}
						if up {
							raised++
						}
					}
				})
				if raised == 0 {
					t.Fatal("the flag was never seen raised")
				}
				last.Step()
				if n := activeRouters(last); n != 0 {
					t.Errorf("one Step past idle %d routers are still active", n)
				}
				for id, st := range last.soft {
					if st != softIdle {
						t.Errorf("one Step past idle node %d still has its flag raised", id)
					}
				}
			})
		}
	}
}

// goldenCell returns the golden-matrix cell of that name.
func goldenCell(t *testing.T, name string) goldenCase {
	t.Helper()
	for _, c := range goldenMatrix {
		if c.name == name {
			return c
		}
	}
	t.Fatalf("no golden-matrix cell named %q", name)
	return goldenCase{}
}

// activeSet expands every domain's active-router set into a per-node flag.
func activeSet(nw *Network) []bool {
	active := make([]bool, len(nw.routers))
	for _, w := range nw.doms {
		for i, m := range w.act {
			for ; m != 0; m &= m - 1 {
				active[int(w.loNode)+i<<6+bits.TrailingZeros64(m)] = true
			}
		}
	}
	return active
}

// compositionShape is one row of the visit-composition table: bench/'s
// workload of that name rebuilt on this package's own constructors (same
// topology, algorithm, V, load, pattern, source and schedule; this test's
// fault placement and seed).
type compositionShape struct {
	name, topo, alg string
	v, nf           int
	lambda          float64
	pattern, source string
	sched           string
	cycles          int64
}

var compositionShapes = []compositionShape{
	{"fig4-faulted", "torus:k=8,n=3", "det", 6, 12, 0.008, "uniform", "poisson", "", 3000},
	{"sat-adaptive", "torus:k=16,n=2", "adaptive", 6, 6, 0.014, "hotspot:frac=0.05", "burst:on=50,off=200", "", 3000},
	{"chaos-sparse", "torus:k=24,n=2", "det", 4, 0, 0.0002, "uniform", "poisson", "mtbf:mtbf=2000,mttr=10000", 30000},
	{"scale-par", "torus:k=32,n=3", "det", 4, 0, 0.0005, "uniform", "poisson", "", 200},
}

// build assembles the shape's engine on the given number of workers; wrap,
// when non-nil, stands between the engine and its (first) routing instance.
func (s compositionShape) build(t *testing.T, workers int, wrap func(routing.Router) routing.Router) *Network {
	t.Helper()
	net, err := topology.NewNetwork(s.topo)
	if err != nil {
		t.Fatal(err)
	}
	fs := fault.NewSet(net)
	if s.nf > 0 {
		if fs, err = fault.Random(net, s.nf, rng.New(41)); err != nil {
			t.Fatal(err)
		}
	}
	alg, err := routing.New(s.alg, net, fs, s.v)
	if err != nil {
		t.Fatal(err)
	}
	pattern, err := traffic.NewPattern(s.pattern, net, fs)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	p := DefaultParams(s.v)
	p.Workers = workers
	p.AlgFactory = func() (routing.Router, error) { return routing.New(s.alg, net, fs, s.v) }
	p.Pool = message.NewPool(net.N(), false)
	gen, err := traffic.NewSource(s.source, traffic.Env{
		T: net, F: fs, Sources: fs.HealthyNodes(), Lambda: s.lambda, MsgLen: 32,
		Mode: alg.BaseMode(), Pattern: pattern, R: r.Split(1), Pool: p.Pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine := r.Split(2)
	if s.sched != "" {
		if p.Schedule, err = fault.NewSchedule(s.sched, fault.ScheduleEnv{T: net, Base: fs, R: r.Split(rng.ScheduleLabel())}); err != nil {
			t.Fatal(err)
		}
	}
	if wrap != nil {
		alg = wrap(alg)
	}
	return New(net, fs, alg, gen, metrics.NewCollector(0), p, engine)
}

// askCounter wraps the engine's routing.Router and sorts the route step's
// Route calls by what they were worth: a call is a re-ask when the head it is
// made for was parked by its previous call (same router, same lane), and
// the re-ask is wasted when the head is parked again after it. The lane a
// call is made for is read off the router at call time — the unrouted head
// at the front of one of its lanes; a call with no such lane comes from the
// inject step and is not counted. settle runs after every Step.
type askCounter struct {
	routing.Router
	nw                    *Network
	asks, reasks, reparks int
	step                  []ask        // this Step's calls
	parked                map[ask]bool // heads parked by their last call
}

type ask struct {
	node topology.NodeID
	lane router.Lane
	msg  uint64
}

func (c *askCounter) Route(cur topology.NodeID, m *message.Message) routing.Decision {
	rt := &c.nw.routers[cur]
	for _, l := range rt.Lanes() {
		if f, _ := rt.Front(l); f.IsHead() && !rt.HasRoute(l) && c.nw.pool.At(f.Ref()) == m {
			c.asks++
			c.step = append(c.step, ask{cur, l, m.ID})
			break
		}
	}
	return c.Router.Route(cur, m)
}

func (c *askCounter) RefreshFaults() {
	if fr, ok := c.Router.(routing.FaultRefresher); ok {
		fr.RefreshFaults()
	}
}

// waiting reports whether a's head still sits, unrouted, at the front of
// its lane — woken or not.
func (c *askCounter) waiting(a ask) bool {
	rt := &c.nw.routers[a.node]
	f, ok := rt.Front(a.lane)
	return ok && f.IsHead() && !rt.HasRoute(a.lane) && c.nw.pool.At(f.Ref()).ID == a.msg
}

func (c *askCounter) settle() {
	for _, a := range c.step {
		again := c.parked[a]
		if again {
			c.reasks++
		}
		if c.waiting(a) && c.nw.routers[a.node].Blocked(a.lane) {
			c.parked[a] = true
			if again {
				c.reparks++
			}
		} else {
			delete(c.parked, a)
		}
	}
	c.step = c.step[:0]
	for a := range c.parked { // a purge may have taken a parked head away
		if !c.waiting(a) {
			delete(c.parked, a)
		}
	}
}

// TestVisitComposition prints (-v) what an active router brings to its
// visit on the four engine shapes of bench/ — how many switch requesters,
// how many of the routed lanes are not waiting for a credit, whether the
// inject step will run or is stalled — and what the route step's Route
// calls were worth (askCounter), and holds the rows to what
// ARCHITECTURE.md says about them; its table is this test's output. The
// counts are read off the engine after every Step (the state the next
// cycle's visits start from), so the visit itself carries no counter.
func TestVisitComposition(t *testing.T) {
	t.Logf("| shape | visits | 0 / 1 / 2+ requesters | routed lanes per visit | of them unparked | head to route | inject runs | inject stalled | `Route` calls of the route step | re-asks of a parked head | parked again |")
	t.Logf("|---|---|---|---|---|---|---|---|---|---|---|")
	for _, s := range compositionShapes {
		asks := &askCounter{parked: map[ask]bool{}}
		nw := s.build(t, 1, func(alg routing.Router) routing.Router {
			asks.Router = alg
			return asks
		})
		asks.nw = nw
		var visits, routed, unparked, toRoute, run, stalled float64
		var byReq [3]float64
		for nw.Now() < s.cycles {
			nw.Step()
			asks.settle()
			for id, on := range activeSet(nw) {
				if !on {
					continue
				}
				rt := &nw.routers[id]
				visits++
				req, heads := 0, false
				for g := 0; g < rt.Words(); g++ {
					req += bits.OnesCount64(rt.SwitchWord(g))
					unparked += float64(bits.OnesCount64(rt.ReadyWord(g)))
					heads = heads || rt.RouteWord(g) != 0
				}
				routed += float64(req)
				byReq[min(req, 2)]++
				if heads {
					toRoute++
				}
				switch nw.soft[id] {
				case softRun:
					run++
				case softStalled:
					stalled++
				}
			}
		}
		pct := func(x float64) float64 { return 100 * x / visits }
		t.Logf("| `%s` | %.0f | %.1f / %.1f / %.1f %% | %.2f | %.2f | %.1f %% | %.1f %% | %.1f %% | %d | %d | %d |", s.name, visits,
			pct(byReq[0]), pct(byReq[1]), pct(byReq[2]), routed/visits, unparked/visits, pct(toRoute), pct(run), pct(stalled),
			asks.asks, asks.reasks, asks.reparks)
		switch s.name {
		case "sat-adaptive":
			if byReq[2] < 0.9*visits || unparked > 0.6*routed || stalled < run {
				t.Errorf("%s: past saturation nine visits in ten should be contended, most routed lanes waiting for a credit and most occupied software layers stalled", s.name)
			}
			// A release wakes the heads that wait for that VC, not the
			// router: under wake-all 54 % of these calls parked a parked
			// head again, and 29 % once a release woke only the heads
			// registered under its port and VC bits. A woken head whose
			// registration covers only busy VCs — several heads shared the
			// candidate and one won, or the VC was taken again — parks
			// without asking (router.Repark). What is left (11 %) is heads
			// whose registration covers a free VC none of their candidates
			// is: the bits pair every registered port with every registered
			// VC.
			if asks.reasks == 0 || 100*asks.reparks >= 15*asks.asks {
				t.Errorf("%s: %d of %d Route calls of the route step parked a head that was parked before (%d re-asks), want under 15 %%", s.name, asks.reparks, asks.asks, asks.reasks)
			}
		case "chaos-sparse":
			if byReq[0]+byReq[1] < 0.9*visits || stalled > 0.01*visits {
				t.Errorf("%s: a near-idle network should visit lone requesters and stall no software layer", s.name)
			}
		}
	}
}
