package sweep

import (
	"fmt"

	"repro/internal/core"
)

// The search's probe range and stopping width. Bracketing doubles λ from
// lambdaMin and probes lambdaMax (messages/node/cycle: far past any
// wormhole network's capacity) last; bisection stops when (hi-lo)/hi <=
// tol. With these values no search takes more than 18 probes: one
// zero-load probe, at most 13 doublings and 5 bisections
// (TestFindSaturationProbeBound).
const (
	lambdaMin = 1e-4
	lambdaMax = 0.5
	tol       = 0.05
)

// SaturationOptions tunes FindSaturation.
type SaturationOptions struct {
	// Factor is the latency threshold as a multiple of the zero-load
	// latency: the search finds the λ where mean latency first exceeds
	// Factor × L₀ (or the run saturates outright). Zero means the
	// default, 3; an explicit Factor must exceed 1 (a threshold at or
	// below zero-load latency is crossed before the search starts).
	Factor float64
	// Run passes checkpoint/worker options through to each probe. The
	// probe sequence is deterministic, so a checkpointed search resumes
	// after interruption exactly like a grid sweep: finished probes are
	// replayed from the journal, unfinished ones re-run.
	Run Options
}

// Saturation is the result of a saturation-point auto-search.
type Saturation struct {
	// Lambda is the estimated saturation rate: the midpoint of the final
	// bracket around the λ where latency crosses the threshold.
	Lambda float64
	// Lo and Hi bound the crossing: the highest λ probed below the
	// threshold and the lowest probed above (or saturated).
	Lo, Hi float64
	// ZeroLoad is the zero-load latency L₀ measured at λ = 1e-4.
	ZeroLoad float64
	// Threshold is the latency bound used, Factor × L₀.
	Threshold float64
	// Probes are every simulation point run, in probe order.
	Probes []core.PointResult
}

// FindSaturation locates the knee of the latency-vs-load curve for one
// configuration by adaptive probing instead of a fixed λ grid: it
// measures zero-load latency at λ = 1e-4, doubles λ until mean latency
// crosses Factor × L₀ (or the engine's saturation guard trips), probing
// λ = 0.5 last, then bisects the bracket to a relative width of 5 %.
// base supplies every Config field except Lambda, which the search
// owns; name labels the probes ("name|sat|l<λ>") in journals and logs.
//
// The probe sequence is a deterministic function of base and opt, so a
// search given a checkpoint journal (opt.Run.Checkpoint) is resumable:
// re-running replays finished probes from the journal and continues
// where it was killed.
func FindSaturation(name string, base core.Config, opt SaturationOptions) (Saturation, error) {
	if opt.Factor == 0 {
		opt.Factor = 3
	}
	sat := Saturation{}
	if opt.Factor <= 1 {
		return sat, fmt.Errorf("sweep: %s: Factor %g must exceed 1 (threshold is Factor × zero-load latency)", name, opt.Factor)
	}

	probe := func(lambda float64) (core.PointResult, error) {
		cfg := base
		cfg.Lambda = lambda
		pt := core.Point{Label: fmt.Sprintf("%s|sat|l%g", name, lambda), Config: cfg}
		res, err := Run(Plan{Name: name + "|sat", Points: []core.Point{pt}}, opt.Run)
		if err != nil {
			return core.PointResult{}, err
		}
		sat.Probes = append(sat.Probes, res[0])
		return res[0], nil
	}
	// over reports whether a probe is past the knee: saturated, or mean
	// latency above the threshold. A probe that failed outright (config
	// error, panic) aborts the search — unlike a grid sweep there is no
	// way to interpolate around a missing probe.
	over := func(r core.PointResult) (bool, error) {
		if r.Err != nil {
			return false, fmt.Errorf("sweep: saturation probe %s: %w", r.Label, r.Err)
		}
		return r.Results.Saturated || r.Results.MeanLatency > sat.Threshold, nil
	}

	r0, err := probe(lambdaMin)
	if err != nil {
		return sat, err
	}
	if r0.Err != nil {
		return sat, fmt.Errorf("sweep: zero-load probe %s: %w", r0.Label, r0.Err)
	}
	if r0.Results.Saturated {
		return sat, fmt.Errorf("sweep: %s already saturated at the zero-load probe λ=%g", name, lambdaMin)
	}
	sat.ZeroLoad = r0.Results.MeanLatency
	sat.Threshold = opt.Factor * sat.ZeroLoad

	// Bracket: grow λ geometrically until the curve crosses the
	// threshold. The last step clamps to lambdaMax so the whole range up
	// to (and including) the cap is actually probed before giving up.
	lo := lambdaMin
	hi := 2 * lambdaMin
	for {
		if hi > lambdaMax {
			hi = lambdaMax
		}
		r, err := probe(hi)
		if err != nil {
			return sat, err
		}
		crossed, err := over(r)
		if err != nil {
			return sat, err
		}
		if crossed {
			break
		}
		if hi >= lambdaMax {
			return sat, fmt.Errorf("sweep: %s not saturated up to λ=%g (latency never crossed %.1f)",
				name, lambdaMax, sat.Threshold)
		}
		lo = hi
		hi *= 2
	}

	// Bisect [lo, hi]: lo is always below the threshold, hi above.
	for (hi-lo)/hi > tol {
		mid := (lo + hi) / 2
		r, err := probe(mid)
		if err != nil {
			return sat, err
		}
		crossed, err := over(r)
		if err != nil {
			return sat, err
		}
		if crossed {
			hi = mid
		} else {
			lo = mid
		}
	}
	sat.Lo, sat.Hi = lo, hi
	sat.Lambda = (lo + hi) / 2
	return sat, nil
}
