package traffic

import (
	"math"
	"strings"
	"testing"
)

// TestParetoConvergesToConfiguredMean checks rate convergence: the long-run
// per-node rate is rate·on/(on+off) regardless of the heavy tail. A large
// shape keeps the tail short enough for a tight tolerance over a finite
// horizon.
func TestParetoConvergesToConfiguredMean(t *testing.T) {
	env := testEnv(t, 21)
	src, err := NewSource("pareto:shape=3,on=50,off=200,rate=0.02", env)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 200_000
	total, _ := pollTotal(t, src, horizon)
	want := 0.02 * 50 / 250 * float64(len(env.Sources)) * horizon
	if math.Abs(float64(total)-want)/want > 0.08 {
		t.Fatalf("pareto generated %d messages, want ~%.0f (±8%%)", total, want)
	}
}

// TestParetoDefaultRateMatchesOfferedLoad checks the λ calibration: with no
// explicit rate, the ON rate is λ(on+off)/on, so the offered load matches a
// poisson run at the same λ.
func TestParetoDefaultRateMatchesOfferedLoad(t *testing.T) {
	env := testEnv(t, 22) // Lambda = 0.005
	src, err := NewSource("pareto:shape=3,on=50,off=200", env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src.Name(), "rate=0.025") {
		t.Fatalf("derived ON rate not λ(on+off)/on: %s", src.Name())
	}
	const horizon = 200_000
	total, _ := pollTotal(t, src, horizon)
	want := env.Lambda * float64(len(env.Sources)) * horizon
	if math.Abs(float64(total)-want)/want > 0.08 {
		t.Fatalf("pareto at default rate generated %d, want ~%.0f (±8%%, equal offered load)", total, want)
	}
}

// TestParetoIsBurstier checks the dispersion ordering at equal offered
// load: heavy-tailed on/off counts must be clearly over-dispersed relative
// to Poisson (index of dispersion >> 1), the property that makes the
// source worth having next to burst/MMPP.
func TestParetoIsBurstier(t *testing.T) {
	dispersion := func(spec string, seed uint64) float64 {
		env := testEnv(t, seed)
		src, err := NewSource(spec, env)
		if err != nil {
			t.Fatal(err)
		}
		const horizon, window = 60_000, 500
		counts := make([]float64, horizon/window)
		for now := int64(1); now <= horizon; now++ {
			counts[(now-1)/window] += float64(len(src.Poll(now)))
		}
		var mean, m2 float64
		for _, c := range counts {
			mean += c
		}
		mean /= float64(len(counts))
		for _, c := range counts {
			m2 += (c - mean) * (c - mean)
		}
		return m2 / float64(len(counts)) / mean
	}
	dPoisson := dispersion("poisson", 23)
	dPareto := dispersion("pareto:shape=1.5,on=50,off=450", 23)
	if dPareto < 1.5*dPoisson {
		t.Fatalf("pareto dispersion %.2f not clearly above poisson %.2f", dPareto, dPoisson)
	}
}

// TestParetoMeanRate checks the MeanRater contract the run layer uses for
// its cycle bound.
func TestParetoMeanRate(t *testing.T) {
	env := testEnv(t, 24)
	src, err := NewSource("pareto:shape=2,on=100,off=100,rate=0.01", env)
	if err != nil {
		t.Fatal(err)
	}
	mr, ok := src.(MeanRater)
	if !ok {
		t.Fatal("pareto source does not implement MeanRater")
	}
	want := 0.01 * 100 / 200 * float64(len(env.Sources))
	if math.Abs(mr.MeanRate()-want) > 1e-12 {
		t.Fatalf("MeanRate() = %g, want %g", mr.MeanRate(), want)
	}
}

// TestParetoRejectsBadSpecs pins the parameter validation: shapes at or
// below 1 (infinite mean), non-positive durations and rates, and unknown
// keys must all be rejected statically.
func TestParetoRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"pareto:shape=1",   // infinite mean
		"pareto:shape=0.8", // infinite mean
		"pareto:shape=-2",  // negative shape
		"pareto:on=0",      // zero duration
		"pareto:off=-5",    // negative duration
		"pareto:rate=0",    // non-positive rate
		"pareto:alpha=1.5", // misspelt key
		"pareto:shape=nan", // NaN shape
	} {
		if _, _, err := CheckSourceSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
		if _, err := NewSource(spec, testEnv(t, 25)); err == nil {
			t.Errorf("NewSource(%q) accepted", spec)
		}
	}
}
