package routing

import (
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/rng"
	"repro/internal/topology"
)

// walk drives a message through the network one hop at a time with no
// contention: Route decides, the walker applies the move, via stops and
// absorptions run the planner exactly as the engine's messaging layer would.
// It returns (hops, softwareStops, delivered).
func walk(tb testing.TB, a *Algorithm, m *message.Message, maxSteps int) (int, int, bool) {
	tb.Helper()
	cur := m.Src
	hops, stops := 0, 0
	for step := 0; step < maxSteps; step++ {
		dec := a.Route(cur, m)
		switch dec.Outcome {
		case Deliver:
			return hops, stops, true
		case ViaArrived:
			m.PopViasAt(cur)
			m.ResetForReinjection()
			stops++
		case AbsorbFault:
			if !a.Plan(cur, m, dec.BlockedDim, dec.BlockedDir) {
				tb.Fatalf("planner found no route at node %d for %v", cur, m)
			}
			m.ResetForReinjection()
			stops++
		case Progress:
			if len(dec.Preferred) == 0 && len(dec.Fallback) == 0 {
				tb.Fatalf("progress with no candidates at node %d", cur)
			}
			cand := dec.Preferred
			if len(cand) == 0 {
				cand = dec.Fallback
			}
			port := cand[0].Port
			if a.Faults().LinkFaulty(cur, port) {
				tb.Fatalf("router chose faulty channel %v at node %d", port, cur)
			}
			if a.Topology().WrapsAround(a.Topology().Coord(cur, port.Dim()), port.Dir()) {
				m.Crossed[port.Dim()] = true
			}
			next := a.Topology().Neighbor(cur, port.Dim(), port.Dir())
			if a.Faults().NodeFaulty(next) {
				tb.Fatalf("router sent message into faulty node %d", next)
			}
			cur = next
			hops++
		}
	}
	return hops, stops, false
}

func mustDet(tb testing.TB, t *topology.Torus, f *fault.Set, v int) *Algorithm {
	tb.Helper()
	a, err := NewDeterministic(t, f, v)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

func mustAdap(tb testing.TB, t *topology.Torus, f *fault.Set, v int) *Algorithm {
	tb.Helper()
	a, err := NewAdaptive(t, f, v)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

func TestConstructorValidation(t *testing.T) {
	tor := topology.New(8, 2)
	f := fault.NewSet(tor)
	if _, err := NewDeterministic(tor, f, 1); err == nil {
		t.Error("V=1 deterministic accepted")
	}
	if _, err := NewAdaptive(tor, f, 2); err == nil {
		t.Error("V=2 adaptive accepted")
	}
	if a, err := NewDeterministic(tor, f, 2); err != nil || a.Name() != "sw-based-deterministic" || a.Adaptive() {
		t.Error("V=2 deterministic rejected or misnamed")
	}
	if a, err := NewAdaptive(tor, f, 3); err != nil || a.Name() != "sw-based-adaptive" || !a.Adaptive() {
		t.Error("V=3 adaptive rejected or misnamed")
	}
}

func TestDetVCSplit(t *testing.T) {
	for _, tc := range []struct{ v, lo0, hi0, lo1, hi1 int }{
		{2, 0, 1, 1, 2},
		{4, 0, 2, 2, 4},
		{6, 0, 3, 3, 6},
		{10, 0, 5, 5, 10},
		{5, 0, 3, 3, 5},
	} {
		lo, hi := detVCs(tc.v, 0)
		if lo != tc.lo0 || hi != tc.hi0 {
			t.Errorf("V=%d class0 = [%d,%d), want [%d,%d)", tc.v, lo, hi, tc.lo0, tc.hi0)
		}
		lo, hi = detVCs(tc.v, 1)
		if lo != tc.lo1 || hi != tc.hi1 {
			t.Errorf("V=%d class1 = [%d,%d), want [%d,%d)", tc.v, lo, hi, tc.lo1, tc.hi1)
		}
	}
}

// In a fault-free network, deterministic SW-Based routing follows exactly
// the e-cube path (paper §2: "the behaviour ... is identical to
// dimension-order (e-cube) routing").
func TestFaultFreeDetIsEcube(t *testing.T) {
	tor := topology.New(8, 3)
	f := fault.NewSet(tor)
	a := mustDet(t, tor, f, 4)
	r := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		src := topology.NodeID(r.Intn(tor.Nodes()))
		dst := topology.NodeID(r.Intn(tor.Nodes()))
		if src == dst {
			continue
		}
		m := message.New(uint64(trial), src, dst, 32, tor.N(), message.Deterministic, 0)
		want := tor.EcubePath(src, dst)
		cur := src
		for i := 1; i < len(want); i++ {
			dec := a.Route(cur, m)
			if dec.Outcome != Progress {
				t.Fatalf("unexpected outcome %v at hop %d", dec.Outcome, i)
			}
			port := dec.Preferred[0].Port
			next := tor.Neighbor(cur, port.Dim(), port.Dir())
			if next != want[i] {
				t.Fatalf("hop %d: got %v want %v", i, tor.Coords(next), tor.Coords(want[i]))
			}
			if tor.WrapsAround(tor.Coord(cur, port.Dim()), port.Dir()) {
				m.Crossed[port.Dim()] = true
			}
			cur = next
		}
		if dec := a.Route(cur, m); dec.Outcome != Deliver {
			t.Fatalf("at destination outcome = %v", dec.Outcome)
		}
		if m.Absorptions != 0 {
			t.Fatal("fault-free walk absorbed")
		}
	}
}

func TestDatelineClassSelection(t *testing.T) {
	tor := topology.New(8, 2)
	f := fault.NewSet(tor)
	a := mustDet(t, tor, f, 4)
	// Hop 7 -> 0 in dim 0 is the dateline crossing: class 1 VCs {2,3}.
	src := tor.FromCoords([]int{7, 0})
	dst := tor.FromCoords([]int{1, 0})
	m := message.New(1, src, dst, 8, 2, message.Deterministic, 0)
	dec := a.Route(src, m)
	if dec.Outcome != Progress {
		t.Fatalf("outcome %v", dec.Outcome)
	}
	for _, c := range dec.Preferred {
		if c.VC < 2 {
			t.Fatalf("dateline-crossing hop offered class-0 VC %d", c.VC)
		}
	}
	// After crossing, class 1 persists.
	m.Crossed[0] = true
	at := tor.FromCoords([]int{0, 0})
	dec = a.Route(at, m)
	for _, c := range dec.Preferred {
		if c.VC < 2 {
			t.Fatalf("post-crossing hop offered class-0 VC %d", c.VC)
		}
	}
	// A fresh message before the dateline gets class 0.
	m2 := message.New(2, tor.FromCoords([]int{1, 0}), tor.FromCoords([]int{3, 0}), 8, 2, message.Deterministic, 0)
	dec = a.Route(m2.Src, m2)
	for _, c := range dec.Preferred {
		if c.VC >= 2 {
			t.Fatalf("pre-dateline hop offered class-1 VC %d", c.VC)
		}
	}
}

func TestAdaptiveCandidatesMinimalAndHealthy(t *testing.T) {
	tor := topology.New(8, 2)
	f := fault.NewSet(tor)
	a := mustAdap(t, tor, f, 6)
	src := tor.FromCoords([]int{0, 0})
	dst := tor.FromCoords([]int{2, 3})
	m := message.New(1, src, dst, 8, 2, message.Adaptive, 0)
	dec := a.Route(src, m)
	if dec.Outcome != Progress {
		t.Fatalf("outcome %v", dec.Outcome)
	}
	// Profitable ports: d0+ and d1+. Adaptive VCs are 2..5 on each => 8.
	if len(dec.Preferred) != 8 {
		t.Fatalf("preferred count = %d, want 8", len(dec.Preferred))
	}
	for _, c := range dec.Preferred {
		if c.VC < adaptiveLowTorus {
			t.Errorf("adaptive candidate on escape VC %d", c.VC)
		}
		if c.Port.Dir() != topology.Plus {
			t.Errorf("non-minimal direction offered: %v", c.Port)
		}
	}
	// Escape on the e-cube move d0+, class 0.
	if len(dec.Fallback) != 1 || dec.Fallback[0].Port != topology.PortFor(0, topology.Plus) || dec.Fallback[0].VC != escapeVC0 {
		t.Fatalf("fallback = %+v", dec.Fallback)
	}
}

func TestAdaptiveBothMinimal(t *testing.T) {
	tor := topology.New(8, 2)
	f := fault.NewSet(tor)
	a := mustAdap(t, tor, f, 4)
	src := tor.FromCoords([]int{0, 0})
	dst := tor.FromCoords([]int{4, 0}) // offset 4 on k=8: both directions minimal
	m := message.New(1, src, dst, 8, 2, message.Adaptive, 0)
	dec := a.Route(src, m)
	ports := map[topology.Port]bool{}
	for _, c := range dec.Preferred {
		ports[c.Port] = true
	}
	if !ports[topology.PortFor(0, topology.Plus)] || !ports[topology.PortFor(0, topology.Minus)] {
		t.Fatalf("both-minimal directions not both offered: %+v", dec.Preferred)
	}
}

func TestDetAbsorbOnFault(t *testing.T) {
	tor := topology.New(8, 2)
	f := fault.NewSet(tor)
	blocker := tor.FromCoords([]int{2, 0})
	f.MarkNode(blocker)
	a := mustDet(t, tor, f, 4)
	src := tor.FromCoords([]int{1, 0})
	dst := tor.FromCoords([]int{4, 0})
	m := message.New(1, src, dst, 8, 2, message.Deterministic, 0)
	dec := a.Route(src, m)
	if dec.Outcome != AbsorbFault {
		t.Fatalf("outcome = %v, want absorb", dec.Outcome)
	}
	if dec.BlockedDim != 0 || dec.BlockedDir != topology.Plus {
		t.Fatalf("blocked move = (%d,%v)", dec.BlockedDim, dec.BlockedDir)
	}
}

func TestAdaptiveAbsorbOnlyWhenAllMinimalFaulty(t *testing.T) {
	tor := topology.New(8, 2)
	f := fault.NewSet(tor)
	// Message at (0,0) to (2,3): block d0+ only; adaptive must still progress via d1+.
	f.MarkNode(tor.FromCoords([]int{1, 0}))
	a := mustAdap(t, tor, f, 4)
	src := tor.FromCoords([]int{0, 0})
	dst := tor.FromCoords([]int{2, 3})
	m := message.New(1, src, dst, 8, 2, message.Adaptive, 0)
	dec := a.Route(src, m)
	if dec.Outcome != Progress {
		t.Fatalf("outcome = %v, want progress around the fault", dec.Outcome)
	}
	for _, c := range dec.Preferred {
		if c.Port.Dim() == 0 {
			t.Error("faulty d0+ offered as candidate")
		}
	}
	// Now block d1+ too: every minimal path faulty -> absorb.
	f2 := fault.NewSet(tor)
	f2.MarkNode(tor.FromCoords([]int{1, 0}))
	f2.MarkNode(tor.FromCoords([]int{0, 1}))
	a2 := mustAdap(t, tor, f2, 4)
	m2 := message.New(2, src, dst, 8, 2, message.Adaptive, 0)
	if dec := a2.Route(src, m2); dec.Outcome != AbsorbFault {
		t.Fatalf("outcome = %v, want absorb when all minimal faulty", dec.Outcome)
	}
}

func TestPlanT1Reversal(t *testing.T) {
	tor := topology.New(8, 2)
	f := fault.NewSet(tor)
	f.MarkNode(tor.FromCoords([]int{2, 0}))
	a := mustDet(t, tor, f, 4)
	src := tor.FromCoords([]int{1, 0})
	dst := tor.FromCoords([]int{4, 0})
	m := message.New(1, src, dst, 8, 2, message.Deterministic, 0)
	if ok := a.Plan(src, m, 0, topology.Plus); !ok {
		t.Fatal("plan failed")
	}
	if !m.Faulted || m.Absorptions != 1 {
		t.Error("fault bookkeeping wrong")
	}
	if m.DirOverride[0] != topology.Minus || !m.Reversed[0] {
		t.Fatalf("T1 did not reverse: override=%v reversed=%v", m.DirOverride[0], m.Reversed[0])
	}
	// The reversed walk must now deliver (1 -> 0 -> 7 -> 6 -> 5 -> 4).
	hops, _, ok := walk(t, a, m, 100)
	if !ok {
		t.Fatal("reversed message not delivered")
	}
	if hops != 5 {
		t.Fatalf("reversed path hops = %d, want 5", hops)
	}
}

func TestPlanT2OrthogonalDetour(t *testing.T) {
	tor := topology.New(8, 2)
	f := fault.NewSet(tor)
	// Vertical bar blocking column x=2, rows y in [0..2]; message along y=1.
	for y := 0; y <= 2; y++ {
		f.MarkNode(tor.FromCoords([]int{2, y}))
	}
	a := mustDet(t, tor, f, 4)
	src := tor.FromCoords([]int{1, 1})
	dst := tor.FromCoords([]int{5, 1})
	m := message.New(1, src, dst, 8, 2, message.Deterministic, 0)
	// Simulate: already reversed once in dim 0 (both sides blocked story);
	// force T2 by marking Reversed.
	m.Reversed[0] = true
	if ok := a.Plan(src, m, 0, topology.Plus); !ok {
		t.Fatal("plan failed")
	}
	if len(m.Via) == 0 {
		t.Fatal("T2 installed no via")
	}
	via := m.Target()
	// Via must clear the region's y-extent [0,2]: y=3 (above hi, nearer) and
	// keep x=1.
	if tor.Coord(via, 0) != 1 {
		t.Errorf("via x = %d, want 1", tor.Coord(via, 0))
	}
	if y := tor.Coord(via, 1); y != 3 && y != 7 {
		t.Errorf("via y = %d, want 3 (or 7)", y)
	}
	if m.DirOverride[0] != topology.Plus {
		t.Error("T2 should re-impose the original direction in the blocked dim")
	}
	_, _, ok := walk(t, a, m, 200)
	if !ok {
		t.Fatal("detoured message not delivered")
	}
}

func TestPlanConcaveUPocket(t *testing.T) {
	tor := topology.New(8, 2)
	f := fault.NewSet(tor)
	// U-shape opening towards -x: message heading +x into the pocket.
	if _, err := fault.StampShape(f, 0, 0, 1, fault.ShapeSpec{Shape: fault.ShapeU, A: 3, B: 3, AnchorA: 3, AnchorB: 2}); err != nil {
		t.Fatal(err)
	}
	a := mustDet(t, tor, f, 4)
	// Destination (4,3) sits inside the pocket (healthy, reachable only from
	// +y); the minimal +x approach from (0,3) hits the left arm at (3,3).
	src := tor.FromCoords([]int{0, 3})
	dst := tor.FromCoords([]int{4, 3})
	m := message.New(1, src, dst, 8, 2, message.Deterministic, 0)
	hops, stops, ok := walk(t, a, m, 500)
	if !ok {
		t.Fatal("message trapped by concave region")
	}
	if stops == 0 {
		t.Fatal("expected at least one software stop")
	}
	if hops < tor.Distance(src, dst) {
		t.Fatalf("hops %d below minimal distance", hops)
	}
}

// The central delivery property: for random connected fault patterns and
// random healthy (src, dst) pairs, both modes always deliver, never visit a
// faulty node, and never exceed a generous step bound.
func TestPropertyDeliveryUnderRandomFaults(t *testing.T) {
	tors := []*topology.Torus{topology.New(8, 2), topology.New(8, 3), topology.New(4, 4)}
	if err := quick.Check(func(seed uint64, nfRaw, pick uint8, adaptive bool) bool {
		tor := tors[int(pick)%len(tors)]
		r := rng.New(seed)
		nf := int(nfRaw) % 13
		fs, err := fault.Random(tor, nf, r)
		if err != nil {
			return true // impossible placement; skip
		}
		var a *Algorithm
		if adaptive {
			a = mustAdap(t, tor, fs, 4)
		} else {
			a = mustDet(t, tor, fs, 4)
		}
		healthy := fs.HealthyNodes()
		src := healthy[r.Intn(len(healthy))]
		dst := healthy[r.Intn(len(healthy))]
		if src == dst {
			return true
		}
		mode := message.Deterministic
		if adaptive {
			mode = message.Adaptive
		}
		m := message.New(1, src, dst, 32, tor.N(), mode, 0)
		_, _, ok := walk(t, a, m, 20*tor.Nodes())
		return ok
	}, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Via-stop bookkeeping: reaching an intermediate destination reports
// ViaArrived, and after popping the message continues to the final
// destination.
func TestViaArrivedFlow(t *testing.T) {
	tor := topology.New(8, 2)
	f := fault.NewSet(tor)
	a := mustDet(t, tor, f, 4)
	src := tor.FromCoords([]int{0, 0})
	dst := tor.FromCoords([]int{4, 4})
	via := tor.FromCoords([]int{0, 2})
	m := message.New(1, src, dst, 8, 2, message.Deterministic, 0)
	m.PushVia(via)
	cur := src
	sawVia := false
	for steps := 0; steps < 100; steps++ {
		dec := a.Route(cur, m)
		if dec.Outcome == Deliver {
			if cur != dst {
				t.Fatal("delivered at wrong node")
			}
			if !sawVia {
				t.Fatal("delivery without passing via")
			}
			return
		}
		if dec.Outcome == ViaArrived {
			if cur != via {
				t.Fatalf("via stop at %v, want %v", tor.Coords(cur), tor.Coords(via))
			}
			sawVia = true
			m.PopViasAt(cur)
			m.ResetForReinjection()
			continue
		}
		port := dec.Preferred[0].Port
		cur = tor.Neighbor(cur, port.Dim(), port.Dir())
	}
	t.Fatal("never delivered")
}

func TestPartner(t *testing.T) {
	for _, tc := range []struct{ d, n, want int }{
		{0, 2, 1}, {1, 2, 0},
		{0, 3, 1}, {1, 3, 2}, {2, 3, 1},
		{0, 1, -1},
		{3, 4, 2},
	} {
		if got := partner(tc.d, tc.n); got != tc.want {
			t.Errorf("partner(%d,%d) = %d, want %d", tc.d, tc.n, got, tc.want)
		}
	}
}

func TestPlannerExactFallbackRespectsFaults(t *testing.T) {
	tor := topology.New(8, 2)
	f := fault.NewSet(tor)
	// Dense wall with a single gap at y=6: heuristics will struggle; the
	// exact planner must thread the gap.
	for y := 0; y < 6; y++ {
		f.MarkNode(tor.FromCoords([]int{4, y}))
	}
	f.MarkNode(tor.FromCoords([]int{4, 7}))
	if f.Disconnects() {
		t.Fatal("test premise broken: wall disconnects")
	}
	a := mustDet(t, tor, f, 4)
	src := tor.FromCoords([]int{2, 0})
	dst := tor.FromCoords([]int{6, 0})
	m := message.New(1, src, dst, 8, 2, message.Deterministic, 0)
	_, _, ok := walk(t, a, m, 1000)
	if !ok {
		t.Fatal("message not delivered through the gap")
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		Progress: "progress", Deliver: "deliver", ViaArrived: "via", AbsorbFault: "absorb",
	} {
		if o.String() != want {
			t.Errorf("%v", o)
		}
	}
}
