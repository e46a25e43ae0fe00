package traffic

import (
	"fmt"

	"repro/internal/registry"
)

// ParetoOnOff is the heavy-tailed on/off source: each node alternates
// independently between an ON phase emitting Poisson arrivals at rate and
// a silent OFF phase, with phase durations drawn from Pareto distributions
// of shape alpha and means on / off cycles. It is the classic self-similar
// workload construction (Willinger et al.): for 1 < alpha <= 2 the phase
// durations have infinite variance, superposing many such sources yields
// burstiness at every time scale — the regime MMPP's exponential phases
// cannot reach. The long-run per-node rate is rate·on/(on+off), so the
// registry's default rate (derived from λ) keeps pareto and poisson runs
// comparable at equal offered load.
type ParetoOnOff struct {
	*schedSource
	shape, on, off, rate float64
	nodes                []paretoNode
}

// paretoNode is one node's phase-process state in continuous time: the
// current phase, the cycle it ends at, and the node's own process clock t
// (the time of its last arrival or phase change).
type paretoNode struct {
	on       bool
	t        float64
	phaseEnd float64
}

// NewParetoOnOff builds the heavy-tailed source. shape is the Pareto tail
// exponent (must exceed 1 so phase means exist; 1.5 is the self-similar
// sweet spot); on and off are mean phase durations in cycles; rate is the
// Poisson rate while ON. Each node starts ON with the stationary
// probability on/(on+off) at the beginning of a fresh phase — Pareto
// phases are not memoryless, so the start is approximately (not exactly)
// stationary, a bias that decays over the warm-up.
func NewParetoOnOff(env Env, shape, on, off, rate float64) (*ParetoOnOff, error) {
	if shape <= 1 {
		return nil, fmt.Errorf("traffic: pareto shape must be > 1 for finite mean phases, got %g", shape)
	}
	if on <= 0 || off <= 0 {
		return nil, fmt.Errorf("traffic: pareto on/off durations must be > 0, got on=%g off=%g", on, off)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("traffic: pareto rate must be > 0, got %g", rate)
	}
	s, err := newSched(fmt.Sprintf("pareto(shape=%g,on=%g,off=%g,rate=%g)", shape, on, off, rate), env)
	if err != nil {
		return nil, err
	}
	s.meanRate = rate * on / (on + off) * float64(len(s.sources))
	p := &ParetoOnOff{schedSource: s, shape: shape, on: on, off: off, rate: rate}
	p.nodes = make([]paretoNode, len(s.sources))
	for i := range p.nodes {
		st := &p.nodes[i]
		st.on = s.r.Float64() < on/(on+off)
		if st.on {
			st.phaseEnd = p.phase(p.on)
		} else {
			st.phaseEnd = p.phase(p.off)
		}
	}
	s.next = p.nextArrival
	s.initHeap(func(idx int) int64 { return p.nextArrival(idx, 0) })
	return p, nil
}

// phase draws one Pareto phase duration with the given mean: the scale is
// mean·(shape-1)/shape, so E[Pareto(shape, scale)] = mean.
func (p *ParetoOnOff) phase(mean float64) float64 {
	return p.r.Pareto(p.shape, mean*(p.shape-1)/p.shape)
}

// nextArrival advances node idx's phase process to its next arrival. An
// ON-phase inter-arrival draw that overshoots the phase boundary is
// discarded and redrawn in the next ON phase — unbiased, because the
// exponential arrival process (unlike the Pareto phases) is memoryless.
func (p *ParetoOnOff) nextArrival(idx int, _ int64) int64 {
	st := &p.nodes[idx]
	for {
		if !st.on {
			st.t = st.phaseEnd
			st.on = true
			st.phaseEnd = st.t + p.phase(p.on)
			continue
		}
		gap := p.r.Exp(1 / p.rate)
		if st.t+gap <= st.phaseEnd {
			st.t += gap
			return int64(st.t)
		}
		st.t = st.phaseEnd
		st.on = false
		st.phaseEnd = st.t + p.phase(p.off)
	}
}

// --- registry wiring ---

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
			return NewParetoOnOff(env, shape, on, off, rate)
		}, a.Finish()
	})
}
