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

// TestDebugPathologicalTrace is a diagnostic: it reproduces the bad
// (seed=1000, nf=3, M=64) configuration and prints the worst message's
// event history. Run with -run DebugPathological -v.
func TestDebugPathologicalTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	tor := topology.New(8, 2)
	fs, err := fault.Random(tor, 3, rng.New(1000).Split(0xfa017))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("faults: %v", func() []string {
		var out []string
		for _, f := range fs.FaultyNodes() {
			out = append(out, tor.FormatNode(f))
		}
		return out
	}())
	alg, err := routing.NewDeterministic(tor, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	r := rng.New(1000)
	gen := poissonSource(tor, fs, 0.002, 64, message.Deterministic, traffic.NewUniform(fs), r.Split(1))
	col := metrics.NewCollector(0)
	p := DefaultParams(4)
	p.Tracer = rec
	nw := New(tor, fs, alg, gen, col, p, r.Split(2))
	for col.DeliveredCount() < 2000 && nw.Now() < 3_000_000 {
		nw.Step()
	}
	// Find the message with the most stops.
	worstID, worstStops := uint64(0), 0
	for id := uint64(0); id < 3000; id++ {
		evs := rec.Events(id)
		stops := 0
		for _, ev := range evs {
			if ev.Kind == trace.ViaStop || ev.Kind == trace.FaultStop {
				stops++
			}
		}
		if stops > worstStops {
			worstStops, worstID = stops, id
		}
	}
	t.Logf("worst message %d with %d stops", worstID, worstStops)
	evs := rec.Events(worstID)
	if len(evs) > 300 {
		evs = evs[:300]
	}
	for _, ev := range evs {
		t.Logf("@%-8d %-10s %s", ev.Cycle, ev.Kind, tor.FormatNode(ev.Node))
	}
	// Regression guard for the T2 corner-via fix: with three isolated
	// faults no message should need double-digit software stops.
	if worstStops > 8 {
		t.Errorf("worst message needed %d stops; T2 ping-pong regression", worstStops)
	}
}
