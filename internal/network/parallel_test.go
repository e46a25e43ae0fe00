package network

import (
	"fmt"
	"strings"
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

// workersTweak returns a Params tweak selecting the given engine worker
// count, wiring the AlgFactory parallel workers need. The factory rebuilds
// the run's fault set with runTraced's stream (rng.New(41)), so clone
// instances are configured identically to the engine's algorithm.
func workersTweak(t *testing.T, net topology.Network, algName string, nf, workers int) func(*Params) {
	t.Helper()
	return func(p *Params) {
		p.Workers = workers
		if workers <= 1 {
			return
		}
		fs := fault.NewSet(net)
		if nf > 0 {
			var err error
			fs, err = fault.Random(net, nf, rng.New(41))
			if err != nil {
				t.Fatal(err)
			}
		}
		p.AlgFactory = func() (routing.Router, error) {
			return routing.New(algName, net, fs, 4)
		}
	}
}

// TestParallelMatchesSerial is the parallel engine's determinism proof at
// the event level: for every worker count, topology family, fault pattern
// and routing mode, the phase-barriered engine must produce the exact same
// trace — every injection, hop, stop, re-injection and delivery at the
// same cycle — and the same finalised results as the serial engine on the
// same seed. Anything weaker (comparing means) could hide commit-order
// divergence that cancels out on average.
func TestParallelMatchesSerial(t *testing.T) {
	torus := func(*testing.T) topology.Network { return topology.New(8, 2) }
	mesh := func(*testing.T) topology.Network { return topology.NewMesh(8, 2) }
	for _, env := range []struct {
		name string
		net  func(*testing.T) topology.Network
		alg  string
		nf   int
	}{
		{"torus-det-faultfree", torus, "det", 0},
		{"torus-det-faulted", torus, "det", 6},
		{"torus-adaptive-faulted", torus, "adaptive", 6},
		{"mesh-det-faulted", mesh, "det", 4},
		{"mesh-adaptive-faultfree", mesh, "adaptive", 0},
	} {
		t.Run(env.name, func(t *testing.T) {
			evBase, resBase := runTraced(t, env.net(t), env.alg, env.nf,
				workersTweak(t, env.net(t), env.alg, env.nf, 1))
			for _, w := range []int{2, 4, 8} {
				net := env.net(t)
				ev, res := runTraced(t, net, env.alg, env.nf,
					workersTweak(t, net, env.alg, env.nf, w))
				assertSameRun(t, evBase, ev, resBase, res, fmt.Sprintf("workers=%d", w))
			}
		})
	}
}

// TestParallelMatchesSerialAblations crosses the parallel engine with the
// timing knobs, on a faulted mesh and a torus with a non-uniform per-link
// latency overlay (mesh edges, absorption/re-injection, due-ordered arrival
// staging): at workers=4, each timing setting must reproduce its own serial
// trace.
func TestParallelMatchesSerialAblations(t *testing.T) {
	for _, env := range []struct {
		name string
		net  func(t *testing.T) topology.Network
		alg  string
		nf   int
	}{
		{"faulted-mesh", func(*testing.T) topology.Network { return topology.NewMesh(8, 2) }, "det", 4},
		{"latmap-torus", latmapTorus, "det", 0},
	} {
		t.Run(env.name, func(t *testing.T) {
			for _, timing := range []bool{false, true} { // Td/Δ/link/credit delays + priority off
				apply := func(p *Params) {
					if timing {
						p.Td, p.Delta = 1, 2
						p.LinkLatency, p.CreditDelay = 2, 2
						p.NoReinjectPriority = true
					}
				}
				netS := env.net(t)
				serialTweak := workersTweak(t, netS, env.alg, env.nf, 1)
				evS, resS := runTraced(t, netS, env.alg, env.nf, func(p *Params) {
					serialTweak(p)
					apply(p)
				})
				netP := env.net(t)
				parTweak := workersTweak(t, netP, env.alg, env.nf, 4)
				evP, resP := runTraced(t, netP, env.alg, env.nf, func(p *Params) {
					parTweak(p)
					apply(p)
				})
				assertSameRun(t, evS, evP, resS, resP, fmt.Sprintf("timing=%v", timing))
			}
		})
	}
}

// TestParallelDrainsWorklist checks the parallel scheduler bookkeeping:
// once the network is idle, no router may linger in any domain's active
// set.
func TestParallelDrainsWorklist(t *testing.T) {
	net := topology.New(8, 2)
	fs := fault.NewSet(net)
	alg, err := routing.New("det", net, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	gen := poissonSource(net, fs, 0.004, 16, alg.BaseMode(), traffic.NewUniform(fs), r.Split(1))
	col := metrics.NewCollector(0)
	p := DefaultParams(4)
	p.Workers = 4
	p.AlgFactory = func() (routing.Router, error) { return routing.New("det", net, fs, 4) }
	nw := New(net, fs, alg, gen, col, p, r.Split(2))
	if got := nw.Workers(); got != 4 {
		t.Fatalf("Workers() = %d, want 4", got)
	}
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
		t.Fatalf("idle network still has %d routers in the active sets", n)
	}
}

// TestWorkersClamp checks the degenerate domain counts: Workers above the
// node count clamps to one domain per node, and Workers <= 1 is the serial
// engine, one domain holding every router.
func TestWorkersClamp(t *testing.T) {
	net := topology.New(2, 2) // 4 nodes
	fs := fault.NewSet(net)
	alg, err := routing.New("det", net, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	p := DefaultParams(4)
	p.Workers = 64
	p.AlgFactory = func() (routing.Router, error) { return routing.New("det", net, fs, 4) }
	nw := New(net, fs, alg, nil, metrics.NewCollector(0), p, r.Split(2))
	if got := nw.Workers(); got != net.Nodes() {
		t.Fatalf("Workers() = %d, want clamp to %d nodes", got, net.Nodes())
	}
	p.Workers = 1
	p.AlgFactory = nil
	nw = New(net, fs, alg, nil, metrics.NewCollector(0), p, rng.New(9).Split(2))
	if len(nw.doms) != 1 || nw.Workers() != 1 || nw.doms[0].hiNode != topology.NodeID(net.Nodes()) {
		t.Fatal("Workers=1 must run the serial engine: one domain of every router")
	}
}

// TestParallelRequiresAlgFactory pins the construction contract: a worker
// pool without per-worker routing instances would share decision scratch
// across goroutines, so New must refuse it loudly.
func TestParallelRequiresAlgFactory(t *testing.T) {
	net := topology.New(8, 2)
	fs := fault.NewSet(net)
	alg, err := routing.New("det", net, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(4)
	p.Workers = 2
	defer func() {
		if recover() == nil {
			t.Fatal("Workers > 1 without AlgFactory did not panic")
		}
	}()
	New(net, fs, alg, nil, metrics.NewCollector(0), p, rng.New(1).Split(2))
}

// TestParallelEnqueueDriven checks the source-less path under the worker
// pool: caller-enqueued messages must behave identically at any worker
// count (Enqueue marks the owning domain's active set from the serial
// side, between cycles).
func TestParallelEnqueueDriven(t *testing.T) {
	run := func(workers int) []trace.Event {
		net := topology.New(8, 2)
		fs := fault.NewSet(net)
		alg, err := routing.New("det", net, fs, 4)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		p := DefaultParams(4)
		p.Tracer = rec
		p.Workers = workers
		if workers > 1 {
			p.AlgFactory = func() (routing.Router, error) { return routing.New("det", net, fs, 4) }
		}
		nw := New(net, fs, alg, nil, metrics.NewCollector(0), p, rng.New(3).Split(2))
		mode := alg.BaseMode()
		for i := 0; i < 32; i++ {
			src := topology.NodeID(i % net.Nodes())
			dst := topology.NodeID((i*13 + 7) % net.Nodes())
			if src == dst {
				dst = (dst + 1) % topology.NodeID(net.Nodes())
			}
			m := message.New(uint64(i), src, dst, 8, net.N(), mode, 0)
			nw.Enqueue(src, m)
		}
		for !nw.Idle() && nw.Now() < 100_000 {
			nw.Step()
		}
		if !nw.Idle() {
			t.Fatal("network did not drain")
		}
		return rec.All()
	}
	base := run(1)
	if len(base) == 0 {
		t.Fatal("no events traced")
	}
	for _, w := range []int{2, 8} {
		got := run(w)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: event counts differ: %d vs %d", w, len(got), len(base))
		}
		for i := range base {
			if base[i] != got[i] {
				t.Fatalf("workers=%d: event %d differs:\nserial:   %+v\nparallel: %+v", w, i, base[i], got[i])
			}
		}
	}
}

// TestMailboxesEmptyBetweenSteps holds phase B's in-place application to
// what routeOwner, the purge and Idle read between Steps, on one domain (the
// serial engine, whose own box carries every transfer) and on three, after
// every Step of the scheduled golden cells and of those with longer links
// or credit paths: every (sender → receiver) mailbox is empty, every
// domain's arrival and credit queue holds only events due after the
// current cycle, and with unit link latency and credit delay both queues
// are empty.
func TestMailboxesEmptyBetweenSteps(t *testing.T) {
	for _, c := range goldenMatrix {
		if c.sched == "" && !strings.Contains(c.name, "lat") {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					unit, queued := true, 0
					runGolden(t, c, workers, func(nw *Network) {
						unit = nw.lat == nil && nw.p.LinkLatency == 1 && nw.p.CreditDelay == 1
						for _, w := range nw.doms {
							for d := range nw.doms {
								if len(w.outArr[d]) != 0 || len(w.outCred[d]) != 0 {
									t.Fatalf("cycle %d: mailbox %d → %d holds %d transfers and %d credits", nw.Now(), w.id, d, len(w.outArr[d]), len(w.outCred[d]))
								}
							}
							for _, ev := range w.arrQ {
								if ev.dueAt <= nw.Now() {
									t.Fatalf("cycle %d domain %d: a transfer due at %d is still queued", nw.Now(), w.id, ev.dueAt)
								}
							}
							for _, ev := range w.credQ {
								if ev.dueAt <= nw.Now() {
									t.Fatalf("cycle %d domain %d: a credit due at %d is still queued", nw.Now(), w.id, ev.dueAt)
								}
							}
							if unit && len(w.arrQ)+len(w.credQ) != 0 {
								t.Fatalf("cycle %d domain %d: unit latency and credit delay, yet %d transfers and %d credits are queued", nw.Now(), w.id, len(w.arrQ), len(w.credQ))
							}
							queued += len(w.arrQ) + len(w.credQ)
						}
					})
					if !unit && queued == 0 {
						t.Error("no event was ever queued: the cell does not exercise a latency above one")
					}
				})
			}
		})
	}
}
