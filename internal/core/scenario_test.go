package core

import (
	"testing"

	"repro/internal/fault"
)

// Scenario tests: run miniature versions of the paper's headline
// comparisons end-to-end through the public API and assert the qualitative
// outcomes the figures plot.

// Fig. 6 in miniature: adaptive throughput exceeds deterministic under
// saturation load with faults.
func TestScenarioAdaptiveThroughputWins(t *testing.T) {
	thr := func(alg string) float64 {
		cfg := DefaultConfig(8, 2, 0.02) // well past saturation
		cfg.V = 6
		cfg.Algorithm = alg
		cfg.WarmupMessages = 200
		cfg.MeasureMessages = 3000
		cfg.Faults.RandomNodes = 5
		cfg.Seed = 9
		cfg.SaturationBacklog = 1 << 30
		cfg.MaxCycles = 40_000
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	det, adp := thr("det"), thr("adaptive")
	if adp <= det {
		t.Fatalf("adaptive throughput %v not above deterministic %v", adp, det)
	}
}

// Fig. 5 in miniature: the concave U region (8 faults) costs deterministic
// routing more than the convex rect (20 faults) at moderate load.
func TestScenarioConcaveBeatsConvexInPain(t *testing.T) {
	lat := func(shape string) float64 {
		cfg := DefaultConfig(8, 2, 0.012)
		cfg.V = 10
		cfg.WarmupMessages = 300
		cfg.MeasureMessages = 5000
		cfg.Seed = 2
		spec, err := fault.ParseShapeSpec(shape)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults.Shapes = []ShapeStamp{{Spec: spec, DimA: 0, DimB: 1}}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanLatency
	}
	rect := lat("rect")
	u := lat("U")
	if u <= rect {
		t.Fatalf("U (8 faults) latency %v not above rect (20 faults) %v", u, rect)
	}
}

// Fig. 3 in miniature: capacity drops as faults accumulate
// (deterministic): at a load the fault-free network absorbs cleanly, the
// nf=5 network falls behind its offered traffic (accepted fraction sinks)
// and its latency multiplies.
func TestScenarioFaultsLowerSaturation(t *testing.T) {
	run := func(nf int) (accepted, latency float64) {
		cfg := DefaultConfig(8, 2, 0.011)
		cfg.V = 4
		cfg.WarmupMessages = 200
		cfg.MeasureMessages = 4000
		cfg.Faults.RandomNodes = nf
		cfg.Seed = 1001
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.AcceptedFraction, res.MeanLatency
	}
	accClean, latClean := run(0)
	accFaulty, latFaulty := run(5)
	if accClean < 0.97 {
		t.Fatalf("fault-free network should keep up at λ=0.011 (accepted %.3f)", accClean)
	}
	if accFaulty >= accClean {
		t.Fatalf("nf=5 accepted fraction %.3f not below fault-free %.3f", accFaulty, accClean)
	}
	if latFaulty < 2*latClean {
		t.Fatalf("nf=5 latency %.1f not at least 2x fault-free %.1f near saturation", latFaulty, latClean)
	}
}
