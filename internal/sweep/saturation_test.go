package sweep

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// queueCurve fakes a latency-vs-load curve with the M/M/1-like shape
// real networks show: L(λ) = L0 / (1 - λ/λc), saturated at λ >= λc.
func queueCurve(l0, lambdaC float64) func(core.Config) (metrics.Results, error) {
	return func(c core.Config) (metrics.Results, error) {
		if c.Lambda >= lambdaC {
			return metrics.Results{MeanLatency: 50 * l0, Saturated: true}, nil
		}
		return metrics.Results{MeanLatency: l0 / (1 - c.Lambda/lambdaC)}, nil
	}
}

func TestFindSaturationBracketsKnee(t *testing.T) {
	const l0, lambdaC = 20.0, 0.01
	base := core.DefaultConfig(8, 2, 0.001)
	sat, err := FindSaturation("fake", base, SaturationOptions{
		Factor: 3,
		Run:    Options{runSweepFunc: fakePool(queueCurve(l0, lambdaC))},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Latency crosses 3·L0 at λ = λc·(1 - 1/3) = 2/3·λc.
	want := lambdaC * 2 / 3
	if sat.Lo > want || want > sat.Hi {
		t.Fatalf("bracket [%g, %g] misses true crossing %g", sat.Lo, sat.Hi, want)
	}
	if (sat.Hi-sat.Lo)/sat.Hi > tol {
		t.Fatalf("bracket [%g, %g] wider than tol", sat.Lo, sat.Hi)
	}
	if math.Abs(sat.Lambda-want)/want > 0.03 {
		t.Fatalf("λ* = %g, want ≈ %g", sat.Lambda, want)
	}
	if sat.ZeroLoad >= l0*1.02 || sat.ZeroLoad < l0 {
		t.Fatalf("zero-load latency %g, want ≈ %g", sat.ZeroLoad, l0)
	}
	if sat.Threshold != 3*sat.ZeroLoad {
		t.Fatalf("threshold %g, want %g", sat.Threshold, 3*sat.ZeroLoad)
	}
}

// TestFindSaturationProbeBound is why the search needs no probe budget:
// over a dense grid of step-curve knees in (lambdaMin, lambdaMax] — and
// just above every doubling probe, where bisection starts widest — every
// search ends within 18 probes with its bracket at tol.
func TestFindSaturationProbeBound(t *testing.T) {
	base := core.DefaultConfig(8, 2, 0.001)
	knees := []float64{lambdaMax}
	for l := 2 * lambdaMin; l < lambdaMax; l *= 2 {
		knees = append(knees, l, math.Nextafter(l, 1))
	}
	const n = 2000
	for i := 1; i < n; i++ { // geometric, strictly inside (lambdaMin, lambdaMax)
		knees = append(knees, lambdaMin*math.Pow(lambdaMax/lambdaMin, float64(i)/n))
	}
	for _, knee := range knees {
		step := func(c core.Config) (metrics.Results, error) {
			if c.Lambda >= knee {
				return metrics.Results{MeanLatency: 1e6, Saturated: true}, nil
			}
			return metrics.Results{MeanLatency: 20}, nil
		}
		sat, err := FindSaturation("step", base, SaturationOptions{Run: Options{runSweepFunc: fakePool(step)}})
		if err != nil {
			t.Fatalf("knee %g: %v", knee, err)
		}
		if len(sat.Probes) > 18 {
			t.Errorf("knee %g: %d probes, want <= 18", knee, len(sat.Probes))
		}
		if sat.Lo >= knee || knee > sat.Hi || (sat.Hi-sat.Lo)/sat.Hi > tol {
			t.Errorf("knee %g: bracket [%g, %g] misses it or is wider than %g", knee, sat.Lo, sat.Hi, tol)
		}
	}
}

// TestFindSaturationResumes checkpoints a search, re-runs it, and
// demands the re-run touch the simulator zero times while reproducing
// the identical answer — the deterministic-probe-sequence contract.
func TestFindSaturationResumes(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sat.jsonl")
	base := core.DefaultConfig(8, 2, 0.001)
	opt := func(run func(core.Config) (metrics.Results, error)) SaturationOptions {
		return SaturationOptions{Run: Options{Checkpoint: ckpt, runSweepFunc: fakePool(run)}}
	}
	first, err := FindSaturation("fake", base, opt(queueCurve(20, 0.01)))
	if err != nil {
		t.Fatal(err)
	}
	poisoned := func(core.Config) (metrics.Results, error) {
		t.Fatal("resumed search re-ran a journalled probe")
		return metrics.Results{}, nil
	}
	second, err := FindSaturation("fake", base, opt(poisoned))
	if err != nil {
		t.Fatal(err)
	}
	if first.Lambda != second.Lambda || first.Lo != second.Lo || first.Hi != second.Hi {
		t.Fatalf("resumed search diverged: %+v vs %+v", first, second)
	}
}

// TestFindSaturationProbesUpToCap pins the bracketing clamp: a
// knee between the last doubling probe (0.4096) and lambdaMax must be
// found by probing lambdaMax itself, not reported as "not saturated".
func TestFindSaturationProbesUpToCap(t *testing.T) {
	// Crossing at 2/3·λc = 0.45 — inside (0.4096, 0.5], the gap the
	// doubling from 1e-4 would skip without the clamp.
	sat, err := FindSaturation("clamp", core.DefaultConfig(8, 2, 0.001), SaturationOptions{
		Run: Options{runSweepFunc: fakePool(queueCurve(20, 0.675))},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.675 * 2 / 3
	if sat.Lo > want || want > sat.Hi {
		t.Fatalf("bracket [%g, %g] misses crossing %g near lambdaMax", sat.Lo, sat.Hi, want)
	}
}

func TestFindSaturationErrors(t *testing.T) {
	base := core.DefaultConfig(8, 2, 0.001)
	// Flat curve: never saturates, so the search gives up at the cap
	// after probing it.
	flat := func(core.Config) (metrics.Results, error) {
		return metrics.Results{MeanLatency: 20}, nil
	}
	sat, err := FindSaturation("flat", base, SaturationOptions{
		Run: Options{runSweepFunc: fakePool(flat)},
	})
	if err == nil || !strings.Contains(err.Error(), "not saturated up to λ=0.5") {
		t.Fatalf("flat curve: %v", err)
	}
	if last := sat.Probes[len(sat.Probes)-1].Config.Lambda; last != lambdaMax {
		t.Fatalf("flat curve: last probe λ=%g, want the cap %g", last, lambdaMax)
	}
	// Saturated from the very first probe.
	drowned := func(core.Config) (metrics.Results, error) {
		return metrics.Results{MeanLatency: 1e6, Saturated: true}, nil
	}
	_, err = FindSaturation("drowned", base, SaturationOptions{
		Run: Options{runSweepFunc: fakePool(drowned)},
	})
	if err == nil || !strings.Contains(err.Error(), "already saturated") {
		t.Fatalf("drowned curve: %v", err)
	}
	// An explicit Factor at or below 1 is an error, not silently the default.
	_, err = FindSaturation("factor", base, SaturationOptions{
		Factor: 1,
		Run:    Options{runSweepFunc: fakePool(flat)},
	})
	if err == nil || !strings.Contains(err.Error(), "Factor") {
		t.Fatalf("Factor=1 not rejected: %v", err)
	}
}

// TestFindSaturationReal smoke-tests the search against the actual
// simulator on a small network; the only assertions are that it
// converges and lands in a plausible band, since the exact knee is what
// the search exists to discover.
func TestFindSaturationReal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real probe sequence")
	}
	base := core.DefaultConfig(4, 2, 0.001)
	base.WarmupMessages = 100
	base.MeasureMessages = 1000
	base.Seed = 3
	sat, err := FindSaturation("real", base, SaturationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sat.Lambda <= lambdaMin || sat.Lambda >= lambdaMax {
		t.Fatalf("implausible saturation rate %g", sat.Lambda)
	}
	if sat.ZeroLoad <= 0 {
		t.Fatalf("zero-load latency %g", sat.ZeroLoad)
	}
}
