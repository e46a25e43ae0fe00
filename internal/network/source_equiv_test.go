package network

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// TestCaptureReplayReproducesWorkload closes the capture → replay loop at
// the engine level: capture the workload of a Poisson run, re-drive it
// through a Replay source, and require the replayed engine to generate the
// same messages at the same cycles and deliver the same count.
func TestCaptureReplayReproducesWorkload(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	build := func(gen traffic.Source, seed uint64) (*Network, *metrics.Collector) {
		alg, err := routing.New("det", tor, fs, 4)
		if err != nil {
			t.Fatal(err)
		}
		col := metrics.NewCollector(0)
		return New(tor, fs, alg, gen, col, DefaultParams(4), rng.New(seed)), col
	}
	var w trace.Workload
	r := rng.New(9)
	gen := poissonSource(tor, fs, 0.004, 16, 0, traffic.NewUniform(fs), r.Split(1))
	nw, col := build(traffic.NewCapture(gen, &w), 9)
	for nw.Now() < 3000 {
		nw.Step()
	}
	nw.StopGeneration()
	for !nw.Idle() && nw.Now() < 100_000 {
		nw.Step()
	}
	if w.Len() == 0 {
		t.Fatal("nothing captured")
	}
	delivered := col.DeliveredCount()

	rp, err := traffic.NewReplay(tor, fs, &w, 0)
	if err != nil {
		t.Fatal(err)
	}
	nw2, col2 := build(rp, 1234) // different engine seed: workload must not depend on it
	for nw2.Now() < 3000 {
		nw2.Step()
	}
	nw2.StopGeneration()
	for !nw2.Idle() && nw2.Now() < 100_000 {
		nw2.Step()
	}
	if rp.Remaining() != 0 {
		t.Fatalf("%d records not replayed", rp.Remaining())
	}
	if got := col2.DeliveredCount(); got != delivered {
		t.Fatalf("replay delivered %d messages, capture run delivered %d", got, delivered)
	}
}
