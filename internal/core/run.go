package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// BuildFaults materialises a fault specification on the network. Random
// placement derives its stream from seed; stamped shapes are deterministic.
// The resulting configuration is rejected if it names nonexistent links or
// disconnects the network. It is the tree's one fault placement: what
// "nf random faults, seed s" means to the engine is what it means to every
// tool that analyses, draws or traces a faulted network.
func BuildFaults(t topology.Network, spec FaultSpec, seed uint64) (*fault.Set, error) {
	var fs *fault.Set
	if spec.RandomNodes != 0 { // a negative count is fault.Random's to refuse
		var err error
		fs, err = fault.Random(t, spec.RandomNodes, rng.New(seed).Split(0xfa017))
		if err != nil {
			return nil, err
		}
	} else {
		fs = fault.NewSet(t)
	}
	for _, s := range spec.Shapes {
		if _, err := fault.StampShape(fs, s.Base, s.DimA, s.DimB, s.Spec); err != nil {
			return nil, err
		}
	}
	for _, l := range spec.Links {
		if err := checkFaultLink(t, l.Src, l.Port); err != nil {
			return nil, err
		}
		fs.MarkLink(l.Src, l.Port)
	}
	if fs.Disconnects() {
		return nil, fmt.Errorf("core: fault specification disconnects the network")
	}
	return fs, nil
}

// buildWorkload constructs the config's workload from the traffic
// registries: the destination pattern (spatial) feeding the arrival source
// (temporal), optionally wrapped in a capture recorder. r must be the run
// seed's Split(1) so the default poisson+uniform path consumes random
// numbers in exactly the historical order.
func buildWorkload(c Config, t topology.Network, fs *fault.Set, mode message.Mode, pool *message.Pool, r *rng.Stream) (traffic.Source, error) {
	pattern, err := traffic.NewPattern(c.PatternSpec(), t, fs)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	src, err := traffic.NewSource(c.TrafficSpec(), traffic.Env{
		T:       t,
		F:       fs,
		Sources: fs.HealthyNodes(),
		Lambda:  c.Lambda,
		MsgLen:  c.MsgLen,
		Mode:    mode,
		Pattern: pattern,
		R:       r,
		Pool:    pool,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if c.CaptureWorkload != nil {
		return traffic.NewCapture(src, c.CaptureWorkload), nil
	}
	return src, nil
}

// chaosWindow is the availability/convergence window length (cycles) for
// scheduled runs. Coarse enough that a window holds a statistically useful
// number of deliveries at moderate load, fine enough to resolve recovery
// after a transition. Static runs never open windows.
const chaosWindow = 1000

// Engine is one fully constructed simulation point that the caller steps
// explicitly. Run remains the one-shot façade; the steppable form exists
// for callers that must separate construction from execution — benchmarks
// measuring steady-state Step cost, debuggers, visualisers.
type Engine struct {
	nw           *network.Network
	col          *metrics.Collector
	sources      int
	quota        uint64
	limit        int64
	backlogLimit int
	saturated    bool
}

// NewEngine validates the config and builds the simulation point: topology,
// faults, routing algorithm, workload, message pool and engine, all wired
// together but not yet advanced a single cycle.
func NewEngine(c Config) (*Engine, error) {
	t, err := c.validate()
	if err != nil {
		return nil, err
	}
	fs, err := BuildFaults(t, c.Faults, c.Seed)
	if err != nil {
		return nil, err
	}
	// One recipe for the engine's router and for every worker's clone:
	// decision scratch is per-goroutine, so each extra engine worker gets
	// an instance of its own, configured identically.
	newRouter := func() (routing.Router, error) {
		a, err := routing.New(c.AlgorithmName(), t, fs, c.V)
		if err != nil {
			return nil, err
		}
		if es, ok := a.(routing.EscalationSetter); ok && c.Escalation > 0 {
			es.SetEscalation(c.Escalation)
		}
		return a, nil
	}
	alg, err := newRouter()
	if err != nil {
		return nil, err
	}
	mode := alg.BaseMode()
	r := rng.New(c.Seed)
	sources := t.Nodes() - fs.NumNodeFaults()
	// One pool serves the source (allocation) and the engine (resolution,
	// recycling); see message.Pool for the determinism contract.
	pool := message.NewPool(t.N(), false)
	gen, err := buildWorkload(c, t, fs, mode, pool, r.Split(1))
	if err != nil {
		return nil, err
	}
	col := metrics.NewCollector(c.WarmupMessages)
	params := network.Params{
		V:                  c.V,
		BufDepth:           c.BufDepth,
		Td:                 c.Td,
		Delta:              c.Delta,
		NoReinjectPriority: c.NoReinjectPriority,
		LinkLatency:        c.LinkLatency,
		CreditDelay:        c.CreditDelay,
		Workers:            c.Workers,
		Pool:               pool,
	}
	if c.Workers > 1 {
		params.AlgFactory = newRouter
	}
	// The engine stream MUST split before the schedule stream: Split
	// advances the parent, so deriving the schedule stream first would
	// silently shift the engine's (and every router's) draw sequence and
	// break static-run reproducibility. With this order a schedule-free
	// config draws identically whether or not the schedule layer exists.
	engineStream := r.Split(2)
	if c.FaultSchedule != "" {
		sched, err := fault.NewSchedule(c.FaultSchedule, fault.ScheduleEnv{
			T: t, Base: fs, R: r.Split(rng.ScheduleLabel()),
		})
		if err != nil {
			return nil, err
		}
		params.Schedule = sched
		col.EnableWindows(chaosWindow)
	}
	nw := network.New(t, fs, alg, gen, col, params, engineStream)
	return &Engine{
		nw:           nw,
		col:          col,
		sources:      sources,
		quota:        uint64(c.MeasureMessages),
		limit:        c.maxCycles(gen, sources),
		backlogLimit: c.saturationBacklog(sources),
	}, nil
}

// Step advances the simulation one cycle.
func (e *Engine) Step() { e.nw.Step() }

// Now returns the current cycle.
func (e *Engine) Now() int64 { return e.nw.Now() }

// Network exposes the underlying engine for inspection.
func (e *Engine) Network() *network.Network { return e.nw }

// Done reports whether the run's termination condition has been reached:
// delivery quota met, cycle bound hit, or source backlog over the
// saturation threshold (the latter two flag the run saturated).
func (e *Engine) Done() bool {
	if e.col.DeliveredCount() >= e.quota {
		return true
	}
	if e.nw.Now() >= e.limit {
		e.saturated = true
		return true
	}
	if e.nw.Now()%1024 == 0 && e.nw.Backlog() > e.backlogLimit {
		e.saturated = true
		return true
	}
	return false
}

// Finalize computes the run's measured results at the current cycle.
func (e *Engine) Finalize() metrics.Results {
	return e.col.Finalize(e.nw.Now(), e.sources, e.saturated)
}

// Run executes one simulation point to completion and returns its measured
// results. The run ends when the measured delivery quota is met, or is cut
// short (and flagged saturated) when the cycle bound or the source-backlog
// threshold is hit.
func Run(c Config) (metrics.Results, error) {
	e, err := NewEngine(c)
	if err != nil {
		return metrics.Results{}, err
	}
	for !e.Done() {
		e.Step()
	}
	return e.Finalize(), nil
}
