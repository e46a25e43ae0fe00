package sweep

import (
	"fmt"

	"repro/internal/core"
)

// SaturationOptions tunes FindSaturation. The zero value uses the
// defaults documented on each field.
type SaturationOptions struct {
	// Factor is the latency threshold as a multiple of the zero-load
	// latency: the search finds the λ where mean latency first exceeds
	// Factor × L₀ (or the run saturates outright). Zero means the
	// default, 3; an explicit Factor must exceed 1 (a threshold at or
	// below zero-load latency is crossed before the search starts).
	Factor float64
	// LambdaMin is the probe that measures zero-load latency L₀ and the
	// initial lower bracket. Default 1e-4.
	LambdaMin float64
	// LambdaMax caps the upward bracketing phase; if latency never
	// crosses the threshold below it, the search fails. Default 0.5
	// (messages/node/cycle — far past any wormhole network's capacity).
	LambdaMax float64
	// Tol is the relative width of the final bracket: bisection stops
	// when (hi-lo)/hi <= Tol. Default 0.05.
	Tol float64
	// MaxProbes caps the total number of simulation points. Default 32.
	MaxProbes int
	// Run passes checkpoint/worker options through to each probe. The
	// probe sequence is deterministic, so a checkpointed search resumes
	// after interruption exactly like a grid sweep: finished probes are
	// replayed from the journal, unfinished ones re-run.
	Run Options
}

func (o SaturationOptions) withDefaults() SaturationOptions {
	if o.Factor == 0 {
		o.Factor = 3
	}
	if o.LambdaMin <= 0 {
		o.LambdaMin = 1e-4
	}
	if o.LambdaMax <= 0 {
		o.LambdaMax = 0.5
	}
	if o.Tol <= 0 {
		o.Tol = 0.05
	}
	if o.MaxProbes <= 0 {
		o.MaxProbes = 32
	}
	return o
}

// Saturation is the result of a saturation-point auto-search.
type Saturation struct {
	// Lambda is the estimated saturation rate: the midpoint of the final
	// bracket around the λ where latency crosses the threshold.
	Lambda float64
	// Lo and Hi bound the crossing: the highest λ probed below the
	// threshold and the lowest probed above (or saturated).
	Lo, Hi float64
	// ZeroLoad is the zero-load latency L₀ measured at LambdaMin.
	ZeroLoad float64
	// Threshold is the latency bound used, Factor × L₀.
	Threshold float64
	// Converged reports that the final bracket reached the requested
	// relative width Tol. False means the probe budget ran out first:
	// Lambda is still the best available estimate, but its bracket is
	// wider than asked for.
	Converged bool
	// Probes are every simulation point run, in probe order.
	Probes []core.PointResult
}

// FindSaturation locates the knee of the latency-vs-load curve for one
// configuration by adaptive probing instead of a fixed λ grid: it
// measures zero-load latency at LambdaMin, grows λ geometrically until
// mean latency crosses Factor × L₀ (or the engine's saturation guard
// trips), then bisects the bracket to relative width Tol. base supplies
// every Config field except Lambda, which the search owns; name labels
// the probes ("name|sat|l<λ>") in journals and logs.
//
// The probe sequence is a deterministic function of base and opt, so a
// search given a checkpoint journal (opt.Run.Checkpoint) is resumable:
// re-running replays finished probes from the journal and continues
// where it was killed.
func FindSaturation(name string, base core.Config, opt SaturationOptions) (Saturation, error) {
	opt = opt.withDefaults()
	sat := Saturation{}
	if opt.Factor <= 1 {
		return sat, fmt.Errorf("sweep: %s: Factor %g must exceed 1 (threshold is Factor × zero-load latency)", name, opt.Factor)
	}
	if opt.LambdaMax <= opt.LambdaMin {
		return sat, fmt.Errorf("sweep: %s: LambdaMax %g must exceed LambdaMin %g", name, opt.LambdaMax, opt.LambdaMin)
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

	r0, err := probe(opt.LambdaMin)
	if err != nil {
		return sat, err
	}
	if r0.Err != nil {
		return sat, fmt.Errorf("sweep: zero-load probe %s: %w", r0.Label, r0.Err)
	}
	if r0.Results.Saturated {
		return sat, fmt.Errorf("sweep: %s already saturated at λ=%g; lower LambdaMin", name, opt.LambdaMin)
	}
	sat.ZeroLoad = r0.Results.MeanLatency
	sat.Threshold = opt.Factor * sat.ZeroLoad

	// Bracket: grow λ geometrically until the curve crosses the
	// threshold. The last step clamps to LambdaMax so the whole range up
	// to (and including) the cap is actually probed before giving up.
	lo := opt.LambdaMin
	hi := 2 * opt.LambdaMin
	for {
		if hi > opt.LambdaMax {
			hi = opt.LambdaMax
		}
		if len(sat.Probes) >= opt.MaxProbes {
			return sat, fmt.Errorf("sweep: %s: probe budget %d exhausted while bracketing", name, opt.MaxProbes)
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
		if hi >= opt.LambdaMax {
			return sat, fmt.Errorf("sweep: %s not saturated up to λ=%g (latency never crossed %.1f)",
				name, opt.LambdaMax, sat.Threshold)
		}
		lo = hi
		hi *= 2
	}

	// Bisect [lo, hi]: lo is always below the threshold, hi above.
	for (hi-lo)/hi > opt.Tol && len(sat.Probes) < opt.MaxProbes {
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
	sat.Converged = (hi-lo)/hi <= opt.Tol
	return sat, nil
}
