package network

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Engine-level coverage beyond the core scenarios: link faults, router
// decision time, higher dimensionality, alternative patterns, and the
// re-injection priority ablation.

func TestConservationWithLinkFaults(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	fs.MarkLink(tor.FromCoords([]int{1, 1}), topology.PortFor(0, topology.Plus))
	fs.MarkLink(tor.FromCoords([]int{4, 4}), topology.PortFor(1, topology.Minus))
	fs.MarkLink(tor.FromCoords([]int{6, 2}), topology.PortFor(1, topology.Plus))
	if fs.Disconnects() {
		t.Fatal("premise: link faults should not disconnect")
	}
	h := newHarness(t, 8, 2, 4, false, fs, 0.004, 16, 0, 19)
	for h.nw.Now() < 4000 {
		h.nw.Step()
	}
	h.drain(t, 200_000)
	res := h.col.Finalize(h.nw.Now(), 64, false)
	if res.Delivered != h.col.GeneratedCount() || res.Dropped != 0 {
		t.Fatalf("conservation violated: %d/%d, dropped %d",
			res.Delivered, h.col.GeneratedCount(), res.Dropped)
	}
	if res.QueuedTotal() == 0 {
		t.Fatal("no absorptions despite link faults on busy rows")
	}
}

func TestConservation4DTorus(t *testing.T) {
	tor := topology.New(4, 4) // 256 nodes
	fs, err := fault.Random(tor, 8, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, 4, 4, 4, false, fs, 0.002, 8, 0, 29)
	for h.nw.Now() < 2500 {
		h.nw.Step()
	}
	h.drain(t, 300_000)
	res := h.col.Finalize(h.nw.Now(), len(fs.HealthyNodes()), false)
	if res.Delivered != h.col.GeneratedCount() || res.Dropped != 0 {
		t.Fatalf("4-D conservation violated: %d/%d", res.Delivered, h.col.GeneratedCount())
	}
}

func TestRouterDecisionTimeTd(t *testing.T) {
	// Td delays every head's routing decision; zero-load latency grows by
	// about Td per hop.
	lat := func(td int64) float64 {
		tor := topology.New(8, 2)
		fs := fault.NewSet(tor)
		alg, err := routing.NewDeterministic(tor, fs, 4)
		if err != nil {
			t.Fatal(err)
		}
		col := metrics.NewCollector(0)
		p := DefaultParams(4)
		p.Td = td
		nw := New(tor, fs, alg, nil, col, p, rng.New(3))
		src := tor.FromCoords([]int{0, 0})
		dst := tor.FromCoords([]int{4, 0})
		m := message.New(0, src, dst, 8, 2, message.Deterministic, 0)
		col.Generated(m)
		nw.Enqueue(src, m)
		for m.DeliveredAt < 0 && nw.Now() < 5000 {
			nw.Step()
		}
		if m.DeliveredAt < 0 {
			t.Fatal("not delivered")
		}
		return float64(m.DeliveredAt)
	}
	l0, l3 := lat(0), lat(3)
	// 4 hops + destination decision: at least 4*3 extra cycles.
	if l3 < l0+12 {
		t.Fatalf("Td=3 latency %v, want >= %v", l3, l0+12)
	}
}

func TestTransposePatternWithFaults(t *testing.T) {
	tor := topology.New(8, 2)
	fs, err := fault.Random(tor, 4, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewDeterministic(tor, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(41)
	gen := poissonSource(tor, fs, 0.003, 16, message.Deterministic,
		traffic.NewTranspose(tor, fs), r.Split(1))
	col := metrics.NewCollector(0)
	nw := New(tor, fs, alg, gen, col, DefaultParams(4), r.Split(2))
	for nw.Now() < 5000 {
		nw.Step()
	}
	nw.StopGeneration()
	for !nw.Idle() && nw.Now() < 300_000 {
		nw.Step()
	}
	if !nw.Idle() {
		t.Fatal("transpose run did not drain")
	}
	if col.DeliveredCount() != col.GeneratedCount() {
		t.Fatalf("lost messages: %d/%d", col.DeliveredCount(), col.GeneratedCount())
	}
}

// The starvation ablation: without re-injection priority absorbed messages
// compete with fresh traffic; conservation must still hold (the ablation
// changes fairness, not safety).
func TestNoReinjectPriorityStillDelivers(t *testing.T) {
	tor := topology.New(8, 2)
	fs, err := fault.Random(tor, 5, rng.New(47))
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewDeterministic(tor, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(47)
	gen := poissonSource(tor, fs, 0.004, 16, message.Deterministic, traffic.NewUniform(fs), r.Split(1))
	col := metrics.NewCollector(0)
	p := DefaultParams(4)
	p.NoReinjectPriority = true
	nw := New(tor, fs, alg, gen, col, p, r.Split(2))
	for nw.Now() < 5000 {
		nw.Step()
	}
	nw.StopGeneration()
	for !nw.Idle() && nw.Now() < 400_000 {
		nw.Step()
	}
	if !nw.Idle() {
		t.Fatal("no-priority run did not drain")
	}
	if col.DeliveredCount() != col.GeneratedCount() {
		t.Fatalf("lost messages: %d/%d", col.DeliveredCount(), col.GeneratedCount())
	}
}

// Link latency: doubling the wire time must add about one extra cycle per
// hop per flit pipeline stage at zero load, and conservation must hold.
func TestLinkLatency(t *testing.T) {
	lat := func(link int64, buf int) float64 {
		tor := topology.New(8, 2)
		fs := fault.NewSet(tor)
		alg, err := routing.NewDeterministic(tor, fs, 4)
		if err != nil {
			t.Fatal(err)
		}
		col := metrics.NewCollector(0)
		p := DefaultParams(4)
		p.LinkLatency = link
		p.BufDepth = buf
		nw := New(tor, fs, alg, nil, col, p, rng.New(3))
		src := tor.FromCoords([]int{0, 0})
		dst := tor.FromCoords([]int{4, 0})
		m := message.New(0, src, dst, 8, 2, message.Deterministic, 0)
		col.Generated(m)
		nw.Enqueue(src, m)
		for m.DeliveredAt < 0 && nw.Now() < 10_000 {
			nw.Step()
		}
		if m.DeliveredAt < 0 {
			t.Fatal("not delivered")
		}
		return float64(m.DeliveredAt)
	}
	l1 := lat(1, 4)
	l3 := lat(3, 4)
	// Head pays (3-1) extra cycles on each of 4 hops at minimum.
	if l3 < l1+8 {
		t.Fatalf("link latency 3 gave %v, want >= %v", l3, l1+8)
	}
}

func TestCreditDelayConservation(t *testing.T) {
	tor := topology.New(4, 2)
	fs := fault.NewSet(tor)
	alg, err := routing.NewDeterministic(tor, fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(61)
	gen := poissonSource(tor, fs, 0.01, 8, message.Deterministic, traffic.NewUniform(fs), r.Split(1))
	col := metrics.NewCollector(0)
	p := DefaultParams(2)
	p.CreditDelay = 4
	p.LinkLatency = 2
	nw := New(tor, fs, alg, gen, col, p, r.Split(2))
	for nw.Now() < 4000 {
		nw.Step()
	}
	nw.StopGeneration()
	for !nw.Idle() && nw.Now() < 400_000 {
		nw.Step()
	}
	if !nw.Idle() {
		t.Fatal("did not drain with delayed credits")
	}
	if col.DeliveredCount() != col.GeneratedCount() {
		t.Fatalf("conservation violated: %d/%d", col.DeliveredCount(), col.GeneratedCount())
	}
}

// Single-flit messages: head == tail, exercising every is-head/is-tail
// branch simultaneously.
func TestSingleFlitMessages(t *testing.T) {
	h := newHarness(t, 4, 2, 4, false, nil, 0.01, 1, 0, 53)
	for h.nw.Now() < 3000 {
		h.nw.Step()
	}
	h.drain(t, 50_000)
	if h.col.DeliveredCount() != h.col.GeneratedCount() {
		t.Fatalf("single-flit conservation violated: %d/%d",
			h.col.DeliveredCount(), h.col.GeneratedCount())
	}
}

// Adaptive routing on a 3-D torus with a stamped concave region.
func TestAdaptive3DWithRegion(t *testing.T) {
	tor := topology.New(4, 3)
	fs := fault.NewSet(tor)
	if _, err := fault.StampShape(fs, 0, 0, 1, fault.ShapeSpec{Shape: fault.ShapeL, A: 2, B: 2, AnchorA: 1, AnchorB: 1}); err != nil {
		t.Fatal(err)
	}
	if fs.Disconnects() {
		t.Fatal("premise broken")
	}
	h := newHarness(t, 4, 3, 4, true, fs, 0.004, 8, 0, 59)
	for h.nw.Now() < 4000 {
		h.nw.Step()
	}
	h.drain(t, 200_000)
	if h.col.DeliveredCount() != h.col.GeneratedCount() {
		t.Fatalf("3-D adaptive conservation violated: %d/%d",
			h.col.DeliveredCount(), h.col.GeneratedCount())
	}
}
