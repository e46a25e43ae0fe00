package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestSweepSurfacesPanics injects a runner that panics on selected points
// and checks RunSweepFunc's contract: the panic becomes that point's Err, the
// other points complete, and the pool survives — serially and in
// parallel.
func TestSweepSurfacesPanics(t *testing.T) {
	points := make([]Point, 6)
	for i := range points {
		points[i] = Point{Label: string(rune('a' + i)), Config: DefaultConfig(4, 2, 0.01)}
	}
	run := func(c Config) (metrics.Results, error) {
		if c.Seed == 0 { // DefaultConfig sets Seed=1; poison below clears it
			panic("boom: poisoned point")
		}
		return metrics.Results{Delivered: 1}, nil
	}
	points[1].Config.Seed = 0
	points[4].Config.Seed = 0
	for _, workers := range []int{1, 3} {
		results := runSweep(points, workers, run, nil)
		for i, r := range results {
			poisoned := i == 1 || i == 4
			if poisoned {
				if r.Err == nil || !strings.Contains(r.Err.Error(), "panicked") {
					t.Fatalf("workers=%d point %d: panic not surfaced: %v", workers, i, r.Err)
				}
				if !strings.Contains(r.Err.Error(), "boom") {
					t.Fatalf("workers=%d point %d: panic value lost: %v", workers, i, r.Err)
				}
				continue
			}
			if r.Err != nil {
				t.Fatalf("workers=%d point %d: healthy point failed: %v", workers, i, r.Err)
			}
			if r.Results.Delivered != 1 {
				t.Fatalf("workers=%d point %d: result not propagated", workers, i)
			}
		}
	}
}

// panickyRouter is a routing instance whose Route panics.
type panickyRouter struct{ routing.Router }

func (panickyRouter) Route(topology.NodeID, *message.Message) routing.Decision {
	panic("boom in worker")
}

// TestEngineWorkerPanicBecomesPointError: a panic on an engine worker's
// own goroutine (here the second routing instance of a Workers=2 point,
// which steps the upper half of the nodes) must reach the point's Err like
// any other, not kill the process — runPointSafe's recover only sees the
// stepping goroutine, so the engine has to carry the panic across its
// barrier.
func TestEngineWorkerPanicBecomesPointError(t *testing.T) {
	run := func(Config) (metrics.Results, error) {
		tor := topology.New(4, 2)
		fs := fault.NewSet(tor)
		alg, err := routing.New("det", tor, fs, 2)
		if err != nil {
			return metrics.Results{}, err
		}
		p := network.DefaultParams(2)
		p.Workers = 2
		p.AlgFactory = func() (routing.Router, error) { return panickyRouter{alg}, nil }
		nw := network.New(tor, fs, alg, nil, metrics.NewCollector(0), p, rng.New(1))
		src := topology.NodeID(tor.Nodes() - 1) // worker 1's domain
		nw.Enqueue(src, message.New(1, src, 0, 4, tor.N(), alg.BaseMode(), 0))
		for i := 0; i < 8; i++ {
			nw.Step()
		}
		return metrics.Results{}, nil
	}
	r := RunPointFunc(Point{Label: "poisoned", Config: DefaultConfig(4, 2, 0.01)}, run)
	if r.Err == nil || !strings.Contains(r.Err.Error(), "boom in worker") {
		t.Fatalf("worker panic not surfaced as the point's error: %v", r.Err)
	}
	if !strings.Contains(r.Err.Error(), "panic in worker 1") {
		t.Fatalf("error does not say which worker panicked: %v", r.Err)
	}
}

// countingRouter is a routing instance that counts its Route calls and takes
// its time over each.
type countingRouter struct {
	routing.Router
	calls *atomic.Int64
}

func (r countingRouter) Route(node topology.NodeID, m *message.Message) routing.Decision {
	r.calls.Add(1)
	time.Sleep(time.Millisecond)
	return r.Router.Route(node, m)
}

// TestEngineWorkerZeroPanicWaitsForWorkers: when the stepping goroutine's
// own worker panics (the first routing instance of a Workers=3 point), the
// panic must still wait at the barrier — it reaches the point's Err naming
// worker 0, and once the point has returned no other worker is still
// stepping the abandoned engine.
func TestEngineWorkerZeroPanicWaitsForWorkers(t *testing.T) {
	var calls atomic.Int64
	run := func(Config) (metrics.Results, error) {
		tor := topology.New(4, 2)
		fs := fault.NewSet(tor)
		alg, err := routing.New("det", tor, fs, 2)
		if err != nil {
			return metrics.Results{}, err
		}
		p := network.DefaultParams(2)
		p.Workers = 3
		p.AlgFactory = func() (routing.Router, error) {
			a, err := routing.New("det", tor, fs, 2)
			return countingRouter{a, &calls}, err
		}
		nw := network.New(tor, fs, panickyRouter{alg}, nil, metrics.NewCollector(0), p, rng.New(1))
		for src := topology.NodeID(0); int(src) < tor.Nodes(); src++ { // every domain has work
			dst := (src + 5) % topology.NodeID(tor.Nodes())
			nw.Enqueue(src, message.New(uint64(src), src, dst, 4, tor.N(), alg.BaseMode(), 0))
		}
		nw.Step()
		return metrics.Results{}, nil
	}
	r := RunPointFunc(Point{Label: "poisoned", Config: DefaultConfig(4, 2, 0.01)}, run)
	after := calls.Load()
	if r.Err == nil || !strings.Contains(r.Err.Error(), "boom in worker") {
		t.Fatalf("worker panic not surfaced as the point's error: %v", r.Err)
	}
	if !strings.Contains(r.Err.Error(), "panic in worker 0") {
		t.Errorf("error does not say which worker panicked: %.80s", r.Err)
	}
	time.Sleep(50 * time.Millisecond)
	now := calls.Load()
	if now != after {
		t.Errorf("workers still stepping after the point returned: %d Route calls then, %d now", after, now)
	}
	if now == 0 {
		t.Error("the other workers never routed: the test does not exercise the barrier")
	}
}

// TestRunSelectsAlgorithmByName exercises the registry seam end to end:
// every registered algorithm with MinV <= 4 must complete a small faulted
// run via Config.Algorithm and deliver its quota.
func TestRunSelectsAlgorithmByName(t *testing.T) {
	for _, name := range []string{"det", "adaptive", "valiant", "valiant-adaptive"} {
		name := name
		t.Run(name, func(t *testing.T) {
			c := DefaultConfig(8, 2, 0.004)
			c.Algorithm = name
			c.V = 4
			c.WarmupMessages = 50
			c.MeasureMessages = 500
			c.Faults.RandomNodes = 3
			c.Seed = 5
			res, err := Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if res.Delivered < 500 {
				t.Fatalf("delivered %d < quota", res.Delivered)
			}
			if res.Dropped != 0 {
				t.Fatalf("dropped %d messages", res.Dropped)
			}
		})
	}
}

// TestRunUnknownAlgorithm checks the registry's error path through the
// config layer.
func TestRunUnknownAlgorithm(t *testing.T) {
	c := DefaultConfig(4, 2, 0.01)
	c.Algorithm = "quantum"
	if _, err := Run(c); err == nil || !strings.Contains(err.Error(), "unknown routing algorithm") {
		t.Fatalf("unknown algorithm not rejected: %v", err)
	}
}

// TestSpecDefaults pins the empty-field defaults bench configs rely on:
// the paper's deterministic routing, uniform pattern and Poisson source.
func TestSpecDefaults(t *testing.T) {
	c := Config{}
	if alg, pat, src := c.AlgorithmName(), c.PatternSpec(), c.TrafficSpec(); alg != "det" || pat != "uniform" || src != "poisson" {
		t.Fatalf("zero config resolves to %q/%q/%q, want det/uniform/poisson", alg, pat, src)
	}
	c.Algorithm, c.Pattern, c.Traffic = "valiant", "transpose", "burst"
	if alg, pat, src := c.AlgorithmName(), c.PatternSpec(), c.TrafficSpec(); alg != "valiant" || pat != "transpose" || src != "burst" {
		t.Fatalf("explicit fields resolve to %q/%q/%q", alg, pat, src)
	}
}
