package traffic

import (
	"fmt"

	"repro/internal/registry"
	"repro/internal/rng"
)

// The pareto source is the heavy-tailed on/off source: onOff with phase
// durations drawn from Pareto distributions of shape alpha. It is the
// classic self-similar workload construction (Willinger et al.): for
// 1 < alpha <= 2 the phase durations have infinite variance, superposing
// many such sources yields burstiness at every time scale — the regime
// burst's exponential phases cannot reach. shape must exceed 1 so phase
// means exist (1.5 is the self-similar sweet spot).
func init() {
	RegisterSource(Info{
		Name:        "pareto",
		Usage:       "pareto[:shape=<alpha>,on=<cycles>,off=<cycles>,rate=<msgs/node/cycle>]",
		Description: "heavy-tailed Pareto on/off arrivals (self-similar for shape<=2); rate defaults to λ·(on+off)/on",
		Aliases:     []string{"pareto-onoff"},
	}, func(spec registry.Spec) (SourceBuilder, error) {
		a := sources.Args(spec)
		shape := a.PositiveFloat("shape", 1.5)
		on, off := a.PositiveFloat("on", 50), a.PositiveFloat("off", 200)
		explicit := a.PositiveFloat("rate", 0)
		if shape <= 1 {
			a.Failf("shape must be > 1, got %g", shape)
		}
		return func(env Env) (Source, error) {
			rate, err := onOffRate("pareto", explicit, on, off, env.Lambda)
			if err != nil {
				return nil, err
			}
			// A Pareto phase of the given mean has scale mean·(shape-1)/shape.
			return newOnOff(fmt.Sprintf("pareto(shape=%g,on=%g,off=%g,rate=%g)", shape, on, off, rate), env, on, off, rate,
				func(r *rng.Stream, mean float64) float64 { return r.Pareto(shape, mean*(shape-1)/shape) })
		}, a.Finish()
	})
}
