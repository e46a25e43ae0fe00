package network

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// countingRouter wraps a routing.Router and counts Route calls per message
// id, so a test can see exactly when the engine asks.
type countingRouter struct {
	routing.Router
	routes map[uint64]int
}

func (c *countingRouter) Route(cur topology.NodeID, m *message.Message) routing.Decision {
	c.routes[m.ID]++
	return c.Router.Route(cur, m)
}

// RefreshFaults forwards the optional capability the embedding hides.
func (c *countingRouter) RefreshFaults() {
	if fr, ok := c.Router.(routing.FaultRefresher); ok {
		fr.RefreshFaults()
	}
}

// blockedScene is the shared set-up of the blocked-head tests: an 8-ary
// 2-cube under deterministic routing with V=2, so a worm travelling +x
// without crossing the dateline has exactly one candidate VC per hop.
// Worm A (id 1, 60 flits) runs (0,0) → (3,0) and holds output (+x, VC 0) of
// router (1,0) for about 60 cycles; worm B (id 2) is injected at (1,0)
// and needs that same output VC, so its head parks on the injection lane.
type blockedScene struct {
	nw   *Network
	alg  *countingRouter
	col  *metrics.Collector
	tor  *topology.Torus
	mid  topology.NodeID // router (1,0)
	rt   *router.Router  // its state
	out  int             // OutIndex of (+x, VC 0)
	lane router.Lane     // injection lane B's head sits in
	a, b *message.Message
}

func newBlockedScene(t *testing.T, bDst []int, sched fault.Schedule) *blockedScene {
	t.Helper()
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	det, err := routing.NewDeterministic(tor, fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := &blockedScene{tor: tor, col: metrics.NewCollector(0)}
	s.alg = &countingRouter{Router: det, routes: map[uint64]int{}}
	p := DefaultParams(2)
	p.Schedule = sched
	s.nw = New(tor, fs, s.alg, nil, s.col, p, rng.New(3))
	s.mid = tor.FromCoords([]int{1, 0})
	s.rt = &s.nw.routers[s.mid]
	s.out = s.rt.OutIndex(topology.PortFor(0, topology.Plus), 0)
	s.lane = s.rt.LaneOf(s.rt.InjectionPort(), 0)

	s.a = message.New(1, tor.FromCoords([]int{0, 0}), tor.FromCoords([]int{3, 0}), 60, 2, message.Deterministic, 0)
	s.col.Generated(s.a)
	s.nw.Enqueue(s.a.Src, s.a)
	// Let A's head reach and leave (1,0) before B shows up.
	for !s.rt.Out[s.out].Busy {
		s.step(t)
	}
	s.b = message.New(2, s.mid, tor.FromCoords(bDst), 8, 2, message.Deterministic, 0)
	s.col.Generated(s.b)
	s.nw.Enqueue(s.mid, s.b)
	for !s.rt.Blocked(s.lane) {
		s.step(t)
	}
	if !s.rt.Out[s.out].Busy {
		t.Fatal("scene broken: B parked but the contested VC is free")
	}
	return s
}

func (s *blockedScene) step(t *testing.T) {
	t.Helper()
	if s.nw.Now() > 500 {
		t.Fatal("scene did not reach the expected state in 500 cycles")
	}
	s.nw.Step()
}

// TestBlockedHeadAllocatesCycleAfterRelease: a head parked on a full VC
// bank is not re-routed while it waits, and takes the VC on the very cycle
// after the holding worm's tail leaves.
func TestBlockedHeadAllocatesCycleAfterRelease(t *testing.T) {
	s := newBlockedScene(t, []int{3, 0}, nil)
	asked := s.alg.routes[s.b.ID]
	for s.rt.Out[s.out].Busy {
		if !s.rt.Blocked(s.lane) || s.rt.HasRoute(s.lane) {
			t.Fatalf("cycle %d: B lost its mark while the VC was still held", s.nw.Now())
		}
		s.step(t)
	}
	// A's tail left during this cycle's switch phase.
	if s.rt.Blocked(s.lane) {
		t.Fatal("release did not wake the parked head")
	}
	if got := s.alg.routes[s.b.ID]; got != asked {
		t.Fatalf("B was routed %d times while parked, want 0", got-asked)
	}
	s.step(t)
	if !s.rt.HasRoute(s.lane) || !s.rt.Out[s.out].Busy {
		t.Fatal("B did not allocate on the cycle after the release")
	}
	if got := s.alg.routes[s.b.ID]; got != asked+1 {
		t.Fatalf("B was routed %d times on wake-up, want exactly 1", got-asked)
	}
	for s.col.DeliveredCount() < 2 {
		s.step(t)
	}
}

// TestFaultTransitionReroutesBlockedHead: the fault set is an input of
// Route, so a transition applied while a head is parked must force one
// fresh Route call — even when the failure is nowhere near it.
func TestFaultTransitionReroutesBlockedHead(t *testing.T) {
	tor := topology.New(8, 2)
	far := topology.ChannelID{Src: tor.FromCoords([]int{5, 5}), Port: topology.PortFor(1, topology.Plus)}
	const failAt = 30
	s := newBlockedScene(t, []int{3, 0}, fault.NewTraceSchedule([]fault.Transition{
		{Cycle: failAt, Fail: true, IsLink: true, Link: far},
	}))
	if s.nw.Now() >= failAt-1 {
		t.Fatalf("scene set up too late (cycle %d) for a transition at %d", s.nw.Now(), failAt)
	}
	asked := s.alg.routes[s.b.ID]
	for s.nw.Now() < failAt-1 {
		s.step(t)
	}
	if got := s.alg.routes[s.b.ID]; got != asked {
		t.Fatalf("B was routed %d times while parked before the transition, want 0", got-asked)
	}
	s.step(t) // the transition cycle
	if got := s.alg.routes[s.b.ID]; got != asked+1 {
		t.Fatalf("transition caused %d Route calls for B, want exactly 1", got-asked)
	}
	if !s.rt.Blocked(s.lane) || !s.rt.Out[s.out].Busy {
		t.Fatal("B should be parked again: A still holds the VC")
	}
	for s.col.DeliveredCount() < 2 {
		s.step(t)
	}
}

// TestPurgedBlockedHeadDoesNotLeakMark: when a purge removes a parked head,
// the mark goes with it — the next worm to use that lane is routed on
// arrival instead of inheriting a wait for a release it does not need.
func TestPurgedBlockedHeadDoesNotLeakMark(t *testing.T) {
	tor := topology.New(8, 2)
	// B runs (1,0) → (2,1): +x first (contested), then +y. Killing its
	// destination purges it wherever it is.
	bDst := []int{2, 1}
	const failAt = 30
	s := newBlockedScene(t, bDst, fault.NewTraceSchedule([]fault.Transition{
		{Cycle: failAt, Fail: true, Node: tor.FromCoords(bDst)},
	}))
	for s.nw.Now() < failAt {
		s.step(t)
	}
	if s.rt.Blocked(s.lane) || s.rt.Len(s.lane) != 0 {
		t.Fatalf("purge left the lane marked (blocked %v, %d flits)", s.rt.Blocked(s.lane), s.rt.Len(s.lane))
	}
	if !s.rt.Out[s.out].Busy {
		t.Fatal("scene broken: A should still hold the contested VC")
	}
	// C reuses the lane but heads +y, where nothing is in its way: it
	// must allocate within a few cycles, long before A's tail passes.
	c := message.New(3, s.mid, tor.FromCoords([]int{1, 3}), 8, 2, message.Deterministic, 0)
	s.col.Generated(c)
	s.nw.Enqueue(s.mid, c)
	deadline := s.nw.Now() + 4
	for !s.rt.HasRoute(s.lane) {
		if s.nw.Now() >= deadline {
			t.Fatalf("C not routed %d cycles after enqueue (blocked %v)", 4, s.rt.Blocked(s.lane))
		}
		s.step(t)
	}
	if f, ok := s.rt.Front(s.lane); !ok || s.nw.pool.At(f.Ref()).ID != c.ID {
		t.Fatal("the routed worm in B's old lane is not C")
	}
	if !s.rt.Out[s.out].Busy {
		t.Fatal("A's tail passed before C allocated; the test proved nothing")
	}
}

// enqueue places one more worm on a node's software queue.
func (s *blockedScene) enqueue(id uint64, src topology.NodeID, dst []int, length int) *message.Message {
	m := message.New(id, src, s.tor.FromCoords(dst), length, 2, message.Deterministic, 0)
	s.col.Generated(m)
	s.nw.Enqueue(src, m)
	return m
}

// TestBlockedHeadIgnoresOtherReleases: the release of an output VC that is
// not among a parked head's candidates is none of its business — it stays
// parked and is not asked again. Worm C crosses router (1,0) along +y while
// B waits there for (+x, VC 0); under a wake-all rule C's tail would have
// cost B one Route call.
func TestBlockedHeadIgnoresOtherReleases(t *testing.T) {
	s := newBlockedScene(t, []int{3, 0}, nil)
	asked := s.alg.routes[s.b.ID]
	c := s.enqueue(3, s.tor.FromCoords([]int{1, 7}), []int{1, 2}, 8)
	up := s.rt.OutIndex(topology.PortFor(1, topology.Plus), 0)
	held, released := false, false
	for s.col.DeliveredCount() < 1 {
		s.step(t)
		busy := s.rt.Out[up].Busy || s.rt.Out[up+1].Busy
		released = released || held && !busy
		held = busy
		if !s.rt.Blocked(s.lane) {
			t.Fatalf("cycle %d: B woken while its one candidate is still held (+y released: %v)", s.nw.Now(), released)
		}
	}
	if !released || s.alg.routes[c.ID] == 0 || !s.rt.Out[s.out].Busy {
		t.Fatal("scene broken: C should have taken and released a +y VC of router (1,0) under A's worm")
	}
	if got := s.alg.routes[s.b.ID]; got != asked {
		t.Fatalf("B was routed %d times for a release it cannot use, want 0", got-asked)
	}
}

// TestBlockedHeadsShareOneRelease: two heads parked on the same output VC
// are both woken by its release; the lower lane takes it, the other finds
// every VC of its registration busy again and parks without a Route call
// (router.Repark), and is woken by the next release of that VC.
func TestBlockedHeadsShareOneRelease(t *testing.T) {
	s := newBlockedScene(t, []int{3, 0}, nil)
	d := s.enqueue(3, s.mid, []int{4, 0}, 8)
	laneD := s.lane + 1
	for !s.rt.Blocked(laneD) {
		s.step(t)
	}
	askedB, askedD := s.alg.routes[s.b.ID], s.alg.routes[d.ID]
	for s.rt.Out[s.out].Busy {
		s.step(t)
	}
	if s.rt.Blocked(s.lane) || s.rt.Blocked(laneD) {
		t.Fatal("the release did not wake both heads registered for the VC")
	}
	s.step(t)
	if !s.rt.HasRoute(s.lane) || !s.rt.Blocked(laneD) {
		t.Fatalf("after the release: B routed %v, D parked %v; want B on the VC and D parked again", s.rt.HasRoute(s.lane), s.rt.Blocked(laneD))
	}
	if b, d := s.alg.routes[s.b.ID]-askedB, s.alg.routes[d.ID]-askedD; b != 1 || d != 0 {
		t.Fatalf("the release cost B %d and D %d Route calls, want 1 and 0", b, d)
	}
	for s.rt.Blocked(laneD) {
		if !s.rt.Out[s.out].Busy {
			t.Fatal("the VC is free and D still parked")
		}
		s.step(t)
	}
	if got := s.alg.routes[d.ID] - askedD; got != 0 {
		t.Fatalf("D was routed %d times while B held the VC, want 0", got)
	}
	s.step(t)
	if !s.rt.HasRoute(laneD) || s.alg.routes[d.ID]-askedD != 1 {
		t.Fatal("D did not allocate on the cycle after B's tail left")
	}
	for s.col.DeliveredCount() < 3 {
		s.step(t)
	}
}

// TestTransitionBetweenWakeAndReaskRoutes: a fault transition drops the
// registration of a head a release has already woken, not only of the heads
// still parked. The scene of TestBlockedHeadsShareOneRelease, with a far
// link failing at the start of the cycle after the release: B takes the VC
// as before, and D, whose registration covers only that busy VC, must ask
// Route again — the fault set it registered under is gone.
func TestTransitionBetweenWakeAndReaskRoutes(t *testing.T) {
	// The release cycle, from the same scene without a schedule.
	s := newBlockedScene(t, []int{3, 0}, nil)
	s.enqueue(3, s.mid, []int{4, 0}, 8)
	for !s.rt.Blocked(s.lane + 1) {
		s.step(t)
	}
	for s.rt.Out[s.out].Busy {
		s.step(t)
	}
	released := s.nw.Now()
	far := topology.ChannelID{Src: s.tor.FromCoords([]int{5, 5}), Port: topology.PortFor(1, topology.Plus)}
	s = newBlockedScene(t, []int{3, 0}, fault.NewTraceSchedule([]fault.Transition{
		{Cycle: released + 1, Fail: true, IsLink: true, Link: far},
	}))
	d := s.enqueue(3, s.mid, []int{4, 0}, 8)
	laneD := s.lane + 1
	for s.nw.Now() < released {
		s.step(t)
	}
	if s.rt.Out[s.out].Busy || s.rt.Blocked(s.lane) || s.rt.Blocked(laneD) {
		t.Fatalf("scene broken at cycle %d: the VC should just have been released and both heads woken", s.nw.Now())
	}
	askedB, askedD := s.alg.routes[s.b.ID], s.alg.routes[d.ID]
	s.step(t) // the transition, then the route step
	if !s.rt.HasRoute(s.lane) || !s.rt.Blocked(laneD) {
		t.Fatalf("after the release: B routed %v, D parked %v; want B on the VC and D parked again", s.rt.HasRoute(s.lane), s.rt.Blocked(laneD))
	}
	if b, d := s.alg.routes[s.b.ID]-askedB, s.alg.routes[d.ID]-askedD; b != 1 || d != 1 {
		t.Fatalf("the transition cycle cost B %d and D %d Route calls, want 1 and 1", b, d)
	}
}

// TestBlockedHeadSpuriousWakeLeavesNoTrace: a head's registration is one
// port bit and one VC bit per candidate, VCs from 7 up sharing a bit
// (router.WaitBit), so on a router with V = 16 a release can wake a head that
// cannot use it. The head looks once — one Route call — and parks again,
// having drawn no random number and traced nothing: the skipped asks and the
// wasted one are equally invisible. A release under none of its bits leaves
// it parked; a candidate's release lets it through.
func TestBlockedHeadSpuriousWakeLeavesNoTrace(t *testing.T) {
	const v = 16
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	det, err := routing.NewDeterministic(tor, fs, v)
	if err != nil {
		t.Fatal(err)
	}
	alg := &countingRouter{Router: det, routes: map[uint64]int{}}
	rec := trace.NewRecorder()
	p := DefaultParams(v)
	p.Tracer = rec
	col := metrics.NewCollector(0)
	nw := New(tor, fs, alg, nil, col, p, rng.New(3))
	mid := tor.FromCoords([]int{1, 0})
	rt := &nw.routers[mid]
	lane := rt.LaneOf(rt.InjectionPort(), 0)
	b := message.New(1, mid, tor.FromCoords([]int{3, 0}), 8, 2, message.Deterministic, 0)
	// Every VC B could take is held (by hand: nobody will release them but
	// this test).
	cands := det.Route(mid, b)
	waits := waitBits(cands.Preferred) | waitBits(cands.Fallback)
	for _, candidates := range [][]routing.CandidateVC{cands.Preferred, cands.Fallback} {
		for _, c := range candidates {
			rt.Out[rt.OutIndex(c.Port, c.VC)].Busy = true
		}
	}
	col.Generated(b)
	nw.Enqueue(mid, b)
	for !rt.Blocked(lane) {
		if nw.Now() > 20 {
			t.Fatal("B never parked")
		}
		nw.Step()
	}
	release := func(o int) {
		rt.Out[o].Busy = true
		rt.Release(o)
	}
	asked, drawn, traced := alg.routes[b.ID], nw.rngs[mid], rec.Count()

	// Neither a candidate nor under both of a candidate's bits: B sleeps on.
	// Under both, but not a candidate: a wasted look.
	isCand := map[int]bool{}
	for _, candidates := range [][]routing.CandidateVC{cands.Preferred, cands.Fallback} {
		for _, c := range candidates {
			isCand[rt.OutIndex(c.Port, c.VC)] = true
		}
	}
	quiet, spurious := -1, -1
	for o := range rt.Out {
		port, vc := rt.LanePortVC(router.Lane(o))
		if bit := router.WaitBit(port, vc); waits&bit != bit {
			quiet = o
		} else if !isCand[o] {
			spurious = o
		}
	}
	if quiet < 0 || spurious < 0 {
		t.Fatalf("scene broken: no output VC outside B's registration (%d) or none inside it that is no candidate (%d)", quiet, spurious)
	}
	release(quiet)
	nw.Step()
	if !rt.Blocked(lane) || alg.routes[b.ID] != asked {
		t.Fatalf("release of output VC %d (not under B's bits): parked %v, %d Route calls", quiet, rt.Blocked(lane), alg.routes[b.ID]-asked)
	}
	release(spurious)
	if rt.Blocked(lane) {
		t.Fatalf("scene broken: the release of output VC %d should wake B", spurious)
	}
	nw.Step()
	if !rt.Blocked(lane) || alg.routes[b.ID] != asked+1 {
		t.Fatalf("spurious wake: parked again %v, %d Route calls, want parked after exactly 1", rt.Blocked(lane), alg.routes[b.ID]-asked)
	}
	if nw.rngs[mid] != drawn || rec.Count() != traced {
		t.Fatalf("the wasted look drew a random number or traced an event (%d new events)", rec.Count()-traced)
	}
	first := rt.OutIndex(cands.Preferred[0].Port, cands.Preferred[0].VC)
	// A candidate: B takes it on the next cycle.
	rt.Release(first)
	nw.Step()
	if !rt.HasRoute(lane) || !rt.Out[first].Busy || alg.routes[b.ID] != asked+2 {
		t.Fatal("B did not allocate the candidate released to it")
	}
}

// TestPurgeSurfacedHeadWaitsDecisionTime: a purge that removes a doomed
// worm's tail from the front of a lane surfaces the live head queued
// behind it, and under a decision time Td that head takes its first
// routing decision exactly Td cycles after the purge — as if it had
// arrived at the end of the previous cycle. Worm Z (60 flits) holds output
// (+x, VC 0) of router (2,0); worm X (3 flits, (0,0) → (3,0)) parks its
// head there, leaving its tail in router (1,0)'s lane from -x; worm Y,
// bound for (1,1), follows X out of (0,0) into the slot behind that tail.
// Failing link (1,0) +x dooms X (its tail holds a route into it) and
// leaves Y alive.
func TestPurgeSurfacedHeadWaitsDecisionTime(t *testing.T) {
	const td, failAt = 2, 40
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	det, err := routing.NewDeterministic(tor, fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg := &countingRouter{Router: det, routes: map[uint64]int{}}
	col := metrics.NewCollector(0)
	mid := tor.FromCoords([]int{1, 0})
	p := DefaultParams(2)
	p.Td = td
	p.Schedule = fault.NewTraceSchedule([]fault.Transition{
		{Cycle: failAt, Fail: true, IsLink: true, Link: topology.ChannelID{Src: mid, Port: topology.PortFor(0, topology.Plus)}},
	})
	nw := New(tor, fs, alg, nil, col, p, rng.New(3))
	enqueue := func(id uint64, src, dst []int, length int) *message.Message {
		m := message.New(id, tor.FromCoords(src), tor.FromCoords(dst), length, 2, message.Deterministic, 0)
		col.Generated(m)
		nw.Enqueue(m.Src, m)
		return m
	}
	enqueue(1, []int{2, 0}, []int{4, 0}, 60)
	x := enqueue(2, []int{0, 0}, []int{3, 0}, 3)
	y := enqueue(3, []int{0, 0}, []int{1, 1}, 4)
	for nw.Now() < failAt-1 {
		nw.Step()
	}
	// The scene: some lane of (1,0) holds X's tail, then Y's head.
	rt := &nw.routers[mid]
	lane := router.Lane(-1)
	for l := range rt.In {
		var ids []uint64
		rt.Each(router.Lane(l), func(f message.Flit) { ids = append(ids, nw.pool.At(f.Ref()).ID) })
		if len(ids) == 2 && ids[0] == x.ID && ids[1] == y.ID {
			lane = router.Lane(l)
		}
	}
	if lane < 0 || !rt.HasRoute(lane) {
		t.Fatalf("scene broken at cycle %d: no routed lane of router (1,0) holds X's tail ahead of Y's head", nw.Now())
	}
	asked := alg.routes[y.ID]
	for nw.Now() < failAt+td-1 {
		nw.Step()
		if got := alg.routes[y.ID]; got != asked || rt.HasRoute(lane) {
			t.Fatalf("cycle %d: Y routed %d times (route held: %v) before the decision time ran out at cycle %d",
				nw.Now(), got-asked, rt.HasRoute(lane), failAt+td)
		}
		if f, ok := rt.Front(lane); !ok || !f.IsHead() || nw.pool.At(f.Ref()).ID != y.ID {
			t.Fatalf("cycle %d: Y's head is not the front of the purged lane", nw.Now())
		}
	}
	nw.Step()
	if got := alg.routes[y.ID]; got != asked+1 || !rt.HasRoute(lane) {
		t.Fatalf("cycle %d: Y routed %d times (route held: %v), want its first decision now", nw.Now(), got-asked, rt.HasRoute(lane))
	}
	for col.DeliveredCount() < 2 && nw.Now() < 500 {
		nw.Step()
	}
	if y.DeliveredAt < 0 {
		t.Fatal("Y was not delivered")
	}
}
