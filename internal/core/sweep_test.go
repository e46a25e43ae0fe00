package core

import (
	"strings"
	"testing"

	"repro/internal/metrics"
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
