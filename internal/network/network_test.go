package network

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// harness bundles one engine with its collaborators.
type harness struct {
	t   *topology.Torus
	f   *fault.Set
	alg *routing.Algorithm
	col *metrics.Collector
	nw  *Network
}

func newHarness(tb testing.TB, k, n, v int, adaptive bool, fs *fault.Set, lambda float64, msgLen, warmup int, seed uint64) *harness {
	tb.Helper()
	tor := topology.New(k, n)
	if fs == nil {
		fs = fault.NewSet(tor)
	}
	var alg *routing.Algorithm
	var err error
	mode := message.Deterministic
	if adaptive {
		alg, err = routing.NewAdaptive(tor, fs, v)
		mode = message.Adaptive
	} else {
		alg, err = routing.NewDeterministic(tor, fs, v)
	}
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(seed)
	gen := poissonSource(tor, fs, lambda, msgLen, mode, traffic.NewUniform(fs), r.Split(1))
	col := metrics.NewCollector(warmup)
	nw := New(tor, fs, alg, gen, col, DefaultParams(v), r.Split(2))
	return &harness{t: tor, f: fs, alg: alg, col: col, nw: nw}
}

// poissonSource builds the registry "poisson" source the way the seed's
// tests called traffic.NewGenerator: every healthy node of fs generates at
// rate lambda, drawing from r. The arrival stream is the one that
// constructor produced (traffic.TestPoissonMatchesReferenceGenerator), so
// every golden trace hash recorded against it still holds.
func poissonSource(net topology.Network, fs *fault.Set, lambda float64, msgLen int, mode message.Mode, pattern traffic.Pattern, r *rng.Stream) traffic.Source {
	src, err := traffic.NewSource("poisson", traffic.Env{
		T: net, F: fs, Sources: fs.HealthyNodes(), Lambda: lambda,
		MsgLen: msgLen, Mode: mode, Pattern: pattern, R: r,
	})
	if err != nil {
		panic(err)
	}
	return src
}

// runUntilDelivered steps until `count` measured deliveries or maxCycles.
func (h *harness) runUntilDelivered(tb testing.TB, count uint64, maxCycles int64) {
	tb.Helper()
	for h.col.DeliveredCount() < count {
		if h.nw.Now() >= maxCycles {
			tb.Fatalf("timeout: %d/%d delivered after %d cycles (backlog %d, inflight %d)",
				h.col.DeliveredCount(), count, h.nw.Now(), h.nw.Backlog(), h.nw.InFlight())
		}
		h.nw.Step()
	}
}

// drain stops generation and runs the network empty.
func (h *harness) drain(tb testing.TB, maxCycles int64) {
	tb.Helper()
	h.nw.StopGeneration()
	start := h.nw.Now()
	for !h.nw.Idle() {
		if h.nw.Now()-start > maxCycles {
			tb.Fatalf("drain did not complete in %d cycles (backlog %d, inflight %d)",
				maxCycles, h.nw.Backlog(), h.nw.InFlight())
		}
		h.nw.Step()
	}
}

func TestSingleMessageLatency(t *testing.T) {
	// Quiet network: one low-rate source; check zero-load latency is about
	// hops + message length plus small pipeline constants.
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	alg, err := routing.NewDeterministic(tor, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector(0)
	nw := New(tor, fs, alg, nil, col, DefaultParams(4), rng.New(3))
	src := tor.FromCoords([]int{0, 0})
	dst := tor.FromCoords([]int{3, 2})
	const M = 16
	m := message.New(0, src, dst, M, 2, message.Deterministic, 0)
	col.Generated(m)
	nw.Enqueue(src, m)
	for m.DeliveredAt < 0 && nw.Now() < 1000 {
		nw.Step()
	}
	if m.DeliveredAt < 0 {
		t.Fatal("message not delivered")
	}
	dist := int64(tor.Distance(src, dst)) // 5
	lat := m.DeliveredAt - m.CreatedAt
	min := dist + M
	if lat < min || lat > min+8 {
		t.Fatalf("zero-load latency = %d, want in [%d, %d]", lat, min, min+8)
	}
}

// TestLongestWormDelivered sends one message.MaxLen-flit worm across a quiet
// 4-ary 2-cube: every flit's seq fits its lane slot's 15 bits, no body flit
// reads as a head, the last one reads as the tail, and the network drains.
func TestLongestWormDelivered(t *testing.T) {
	tor := topology.New(4, 2)
	fs := fault.NewSet(tor)
	alg, err := routing.NewDeterministic(tor, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector(0)
	nw := New(tor, fs, alg, nil, col, DefaultParams(4), rng.New(3))
	src, dst := tor.FromCoords([]int{0, 0}), tor.FromCoords([]int{2, 1})
	m := message.New(0, src, dst, message.MaxLen, 2, message.Deterministic, 0)
	col.Generated(m)
	nw.Enqueue(src, m)
	min := int64(tor.Distance(src, dst)) + message.MaxLen
	for m.DeliveredAt < 0 && nw.Now() < 2*min {
		nw.Step()
	}
	if lat := m.DeliveredAt - m.CreatedAt; m.DeliveredAt < 0 || lat < min || lat > min+8 {
		t.Fatalf("delivered at %d (latency %d), want latency in [%d, %d]", m.DeliveredAt, lat, min, min+8)
	}
	if nw.InFlight() != 0 || !nw.Idle() || col.DeliveredCount() != 1 {
		t.Fatalf("after delivery: in flight %d, idle %v, delivered %d", nw.InFlight(), nw.Idle(), col.DeliveredCount())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, float64, int64) {
		fs, err := fault.Random(topology.New(8, 2), 3, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		h := newHarness(t, 8, 2, 4, false, fs, 0.004, 32, 50, 42)
		h.runUntilDelivered(t, 400, 2_000_000)
		res := h.col.Finalize(h.nw.Now(), 61, false)
		return res.Delivered, res.MeanLatency, h.nw.Now()
	}
	d1, l1, c1 := run()
	d2, l2, c2 := run()
	if d1 != d2 || l1 != l2 || c1 != c2 {
		t.Fatalf("non-deterministic: (%d,%v,%d) vs (%d,%v,%d)", d1, l1, c1, d2, l2, c2)
	}
}

func TestConservationFaultFree(t *testing.T) {
	h := newHarness(t, 8, 2, 4, false, nil, 0.005, 16, 0, 7)
	for h.nw.Now() < 3000 {
		h.nw.Step()
	}
	h.drain(t, 100_000)
	gen := h.col.GeneratedCount()
	res := h.col.Finalize(h.nw.Now(), 64, false)
	if gen == 0 {
		t.Fatal("no traffic generated")
	}
	if res.Delivered != gen {
		t.Fatalf("conservation violated: generated %d, delivered %d, dropped %d",
			gen, res.Delivered, res.Dropped)
	}
	if res.Dropped != 0 {
		t.Fatal("drops in a fault-free network")
	}
	if res.QueuedTotal() != 0 {
		t.Fatalf("software stops in a fault-free network: %d", res.QueuedTotal())
	}
}

func TestConservationWithFaultsDeterministic(t *testing.T) {
	tor := topology.New(8, 2)
	fs, err := fault.Random(tor, 5, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, 8, 2, 4, false, fs, 0.004, 16, 0, 13)
	for h.nw.Now() < 4000 {
		h.nw.Step()
	}
	h.drain(t, 200_000)
	gen := h.col.GeneratedCount()
	res := h.col.Finalize(h.nw.Now(), len(fs.HealthyNodes()), false)
	if res.Delivered != gen || res.Dropped != 0 {
		t.Fatalf("conservation violated: generated %d, delivered %d, dropped %d",
			gen, res.Delivered, res.Dropped)
	}
	if res.QueuedTotal() == 0 {
		t.Fatal("expected software stops with 5 faults")
	}
}

func TestConservationWithFaultsAdaptive(t *testing.T) {
	tor := topology.New(8, 2)
	fs, err := fault.Random(tor, 5, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, 8, 2, 4, true, fs, 0.004, 16, 0, 17)
	for h.nw.Now() < 4000 {
		h.nw.Step()
	}
	h.drain(t, 200_000)
	gen := h.col.GeneratedCount()
	res := h.col.Finalize(h.nw.Now(), len(fs.HealthyNodes()), false)
	if res.Delivered != gen || res.Dropped != 0 {
		t.Fatalf("conservation violated: generated %d, delivered %d", gen, res.Delivered)
	}
}

func TestAdaptiveQueuesLessThanDeterministic(t *testing.T) {
	// The core Fig. 7 qualitative claim: adaptive routing absorbs far fewer
	// messages than deterministic under the same faults.
	tor := topology.New(8, 2)
	fs, err := fault.Random(tor, 5, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	queued := func(adaptive bool) uint64 {
		h := newHarness(t, 8, 2, 6, adaptive, fs, 0.005, 16, 0, 33)
		h.runUntilDelivered(t, 3000, 5_000_000)
		res := h.col.Finalize(h.nw.Now(), len(fs.HealthyNodes()), false)
		return res.QueuedFault
	}
	det := queued(false)
	ad := queued(true)
	if det == 0 {
		t.Fatal("deterministic run saw no absorptions")
	}
	if ad >= det {
		t.Fatalf("adaptive absorbed %d >= deterministic %d", ad, det)
	}
}

func TestHigherLoadHigherLatency(t *testing.T) {
	lat := func(lambda float64) float64 {
		h := newHarness(t, 8, 2, 4, false, nil, lambda, 32, 100, 55)
		h.runUntilDelivered(t, 2000, 5_000_000)
		return h.col.Finalize(h.nw.Now(), 64, false).MeanLatency
	}
	low := lat(0.001)
	high := lat(0.008)
	if high <= low {
		t.Fatalf("latency did not increase with load: %.1f (λ=.001) vs %.1f (λ=.008)", low, high)
	}
}

func TestLongerMessagesHigherLatency(t *testing.T) {
	lat := func(m int) float64 {
		h := newHarness(t, 8, 2, 4, false, nil, 0.002, m, 100, 77)
		h.runUntilDelivered(t, 1500, 5_000_000)
		return h.col.Finalize(h.nw.Now(), 64, false).MeanLatency
	}
	l32 := lat(32)
	l64 := lat(64)
	if l64 <= l32 {
		t.Fatalf("64-flit latency %.1f not above 32-flit %.1f", l64, l32)
	}
}

func TestBackpressureTinyBuffers(t *testing.T) {
	// BufDepth 1 at a busy load: credits must never be violated (Push panics
	// on overflow) and the network must still deliver.
	tor := topology.New(4, 2)
	fs := fault.NewSet(tor)
	alg, err := routing.NewDeterministic(tor, fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	gen := poissonSource(tor, fs, 0.02, 8, message.Deterministic, traffic.NewUniform(fs), r.Split(1))
	col := metrics.NewCollector(0)
	p := Params{V: 2, BufDepth: 1}
	nw := New(tor, fs, alg, gen, col, p, r.Split(2))
	for nw.Now() < 5000 {
		nw.Step()
	}
	nw.StopGeneration()
	for !nw.Idle() && nw.Now() < 500_000 {
		nw.Step()
	}
	if !nw.Idle() {
		t.Fatal("network failed to drain with depth-1 buffers")
	}
	if col.DeliveredCount() != col.GeneratedCount() {
		t.Fatalf("lost messages: %d/%d", col.DeliveredCount(), col.GeneratedCount())
	}
}

func TestReinjectionDelayDelta(t *testing.T) {
	// With a fault forcing absorption, Δ > 0 must delay deliveries relative
	// to Δ = 0.
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	fs.MarkNode(tor.FromCoords([]int{2, 0}))
	meanLat := func(delta int64) float64 {
		alg, err := routing.NewDeterministic(tor, fs, 4)
		if err != nil {
			t.Fatal(err)
		}
		col := metrics.NewCollector(0)
		p := DefaultParams(4)
		p.Delta = delta
		nw := New(tor, fs, alg, nil, col, p, rng.New(3))
		// Source two hops from the fault: the head discovers the faulty
		// channel at (1,0) mid-network and absorbs there (a fault adjacent
		// to the source would be replanned at injection time, without Δ).
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
	l0 := meanLat(0)
	l50 := meanLat(50)
	if l50 < l0+50 {
		t.Fatalf("Δ=50 latency %v not at least 50 over Δ=0 latency %v", l50, l0)
	}
}

func TestVirtualChannelsImproveSaturation(t *testing.T) {
	// At a load that saturates V=2, V=8 should deliver the quota faster
	// (higher throughput / lower clip latency).
	cycles := func(v int) int64 {
		h := newHarness(t, 8, 2, v, false, nil, 0.01, 32, 100, 91)
		h.runUntilDelivered(t, 2000, 20_000_000)
		return h.nw.Now()
	}
	c2 := cycles(2)
	c8 := cycles(8)
	if c8 > c2 {
		t.Fatalf("V=8 took %d cycles, V=2 took %d — more VCs should not be slower", c8, c2)
	}
}

func TestParamValidation(t *testing.T) {
	tor := topology.New(4, 2)
	fs := fault.NewSet(tor)
	alg, err := routing.NewDeterministic(tor, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched V did not panic")
		}
	}()
	New(tor, fs, alg, nil, metrics.NewCollector(0), DefaultParams(2), rng.New(1))
}

// hugeNet claims more nodes than the engine's 32-bit records can name.
type hugeNet struct{ topology.Network }

func (hugeNet) Nodes() int { return math.MaxInt32 + 1 }

// TestRecordLayout pins the engine's per-link, per-stream, per-queue and
// per-event records at the sizes their 32-bit fields give them, and New's
// refusal of a network or a latency those fields cannot hold.
func TestRecordLayout(t *testing.T) {
	for _, c := range []struct {
		what       string
		size, want uintptr
	}{
		{"link", unsafe.Sizeof(link(0)), 4},
		{"message.Queue", unsafe.Sizeof(message.Queue{}), 8},
		{"stream", unsafe.Sizeof(stream{}), 8},
		{"arrivalEvent", unsafe.Sizeof(arrivalEvent{}), 24},
		{"creditEvent", unsafe.Sizeof(creditEvent{}), 16},
	} {
		if c.size != c.want {
			t.Errorf("%s is %d bytes, want %d", c.what, c.size, c.want)
		}
	}
	tor := topology.New(4, 2)
	fs := fault.NewSet(tor)
	alg, err := routing.NewDeterministic(tor, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	slow := DefaultParams(4)
	slow.LinkLatency = topology.MaxLinkLatency + 1
	for _, c := range []struct {
		what string
		net  topology.Network
		p    Params
	}{
		{"2^31 nodes", hugeNet{tor}, DefaultParams(4)},
		{"2^31 latency", tor, slow},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted %s", c.what)
				}
			}()
			New(c.net, fs, alg, nil, metrics.NewCollector(0), c.p, rng.New(1))
		}()
	}
}
