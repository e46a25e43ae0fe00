package network

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// runScheduled is runTraced's dynamic-fault sibling: it drives one engine
// with a trace schedule applying the given transitions mid-run. Unlike
// workersTweak it wires the parallel AlgFactory over the engine's own
// fault set — the sharing core.NewEngine establishes — because clones
// must observe transitions, not a private static copy.
func runScheduled(t *testing.T, net topology.Network, algName string, nf, workers int, evs []fault.Transition) ([]trace.Event, metrics.Results) {
	t.Helper()
	fs := fault.NewSet(net)
	if nf > 0 {
		var err error
		fs, err = fault.Random(net, nf, rng.New(41))
		if err != nil {
			t.Fatal(err)
		}
	}
	alg, err := routing.New(algName, net, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(123)
	pattern, err := traffic.NewPattern("uniform", net, fs)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	col := metrics.NewCollector(0)
	p := DefaultParams(4)
	p.Tracer = rec
	p.Workers = workers
	if workers > 1 {
		p.AlgFactory = func() (routing.Router, error) { return routing.New(algName, net, fs, 4) }
	}
	p.Schedule = fault.NewTraceSchedule(evs)
	pool := message.NewPool(net.N(), false)
	p.Pool = pool
	gen, err := traffic.NewSource("poisson", traffic.Env{
		T: net, F: fs, Sources: fs.HealthyNodes(),
		Lambda: 0.004, MsgLen: 16, Mode: alg.BaseMode(),
		Pattern: pattern, R: r.Split(1), Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw := New(net, fs, alg, gen, col, p, r.Split(2))
	for nw.Now() < 4000 {
		nw.Step()
	}
	nw.StopGeneration()
	for !nw.Idle() && nw.Now() < 400_000 {
		nw.Step()
	}
	if !nw.Idle() {
		t.Fatal("network did not drain")
	}
	if err := rec.Verify(net); err != nil {
		t.Fatalf("dynamic trace fails verification: %v", err)
	}
	return rec.All(), col.Finalize(nw.Now(), len(fs.HealthyNodes()), false)
}

// healthyNode returns a node that is healthy under the static placement
// runScheduled builds for nf faults, scanning upward from want so tests
// pick transition victims deterministically.
func healthyNode(t *testing.T, net topology.Network, nf int, want topology.NodeID) topology.NodeID {
	t.Helper()
	fs := fault.NewSet(net)
	if nf > 0 {
		var err error
		fs, err = fault.Random(net, nf, rng.New(41))
		if err != nil {
			t.Fatal(err)
		}
	}
	for n := want; n < topology.NodeID(net.Nodes()); n++ {
		if !fs.NodeFaulty(n) {
			return n
		}
	}
	t.Fatal("no healthy node found")
	return -1
}

// churnEvents builds the canonical active schedule the dynamic tests
// share: a link fails and heals, then a node fails and heals, all inside
// the generation window so purged worms, re-injections and the healed
// aftermath are all exercised before the drain.
func churnEvents(t *testing.T, net topology.Network, nf int) []fault.Transition {
	t.Helper()
	victim := healthyNode(t, net, nf, 27)
	link := topology.ChannelID{Src: healthyNode(t, net, nf, 9), Port: 0}
	return []fault.Transition{
		{Cycle: 1000, Fail: true, IsLink: true, Link: link},
		{Cycle: 1600, Fail: false, IsLink: true, Link: link},
		{Cycle: 2200, Fail: true, Node: victim},
		{Cycle: 2800, Fail: false, Node: victim},
	}
}

// TestEmptyScheduleMatchesStatic proves the schedule layer is free when
// inert: an engine carrying an empty trace schedule (view wired, dynamic
// gates live) must produce the exact event trace and results of the
// plain static engine, across topology families and routing modes.
func TestEmptyScheduleMatchesStatic(t *testing.T) {
	torus := func() topology.Network { return topology.New(8, 2) }
	mesh := func() topology.Network { return topology.NewMesh(8, 2) }
	for _, tc := range []struct {
		name string
		net  func() topology.Network
		alg  string
		nf   int
	}{
		{"torus-det", torus, "det", 6},
		{"torus-adaptive", torus, "adaptive", 6},
		{"mesh-det", mesh, "det", 4},
		{"mesh-adaptive", mesh, "adaptive", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evStatic, resStatic := runTraced(t, tc.net(), tc.alg, tc.nf, nil)
			evSched, resSched := runScheduled(t, tc.net(), tc.alg, tc.nf, 1, nil)
			assertSameRun(t, evStatic, evSched, resStatic, resSched, "static vs empty schedule")
		})
	}
}

// TestScheduleParallelMatchesSerial extends the commit-order determinism
// proof to dynamic runs: with an active fail/heal schedule — purges,
// re-injections, credit restores and planner refreshes mid-run — every
// worker count must reproduce the serial engine's trace bit for bit.
func TestScheduleParallelMatchesSerial(t *testing.T) {
	const nf = 3
	net := topology.New(8, 2)
	evs := churnEvents(t, net, nf)
	evBase, resBase := runScheduled(t, net, "adaptive", nf, 1, evs)
	if resBase.Transitions != uint64(len(evs)) {
		t.Fatalf("transitions = %d, want %d (schedule did not run)", resBase.Transitions, len(evs))
	}
	for _, w := range []int{2, 4, 8} {
		ev, res := runScheduled(t, topology.New(8, 2), "adaptive", nf, w, evs)
		assertSameRun(t, evBase, ev, resBase, res, fmt.Sprintf("workers=%d", w))
	}
}

// TestChaosTraceGolden pins the canonical dynamic run — a faulted torus
// with one link and one node failing and healing mid-run — against a
// golden trace hash, the dynamic sibling of TestPerRouterRNGGolden. Any
// unintended change to transition application order, purge sweep order,
// or the purge trace grammar moves this hash.
func TestChaosTraceGolden(t *testing.T) {
	const golden uint64 = 0x80daf580d670e4cf
	const nf = 3
	net := topology.New(8, 2)
	ev, res := runScheduled(t, net, "adaptive", nf, 1, churnEvents(t, net, nf))
	if res.Transitions != 4 {
		t.Fatalf("transitions = %d, want 4", res.Transitions)
	}
	if h := traceHash(ev); h != golden {
		t.Fatalf("chaos trace hash = %#x, want %#x (the dynamic-fault event sequence changed; "+
			"if intentional, update the golden)", h, golden)
	}
}
