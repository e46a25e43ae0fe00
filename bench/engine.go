package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// sample is what one iteration of a workload (one set-up plus its fixed
// work) yields.
type sample struct {
	setupS, wallS float64
	// results are the simulated statistics of every point, in plan order;
	// cycles sums the simulated cycles over them.
	results []metrics.Results
	cycles  int64
	// failed counts points that errored or missed the hard deadline; err
	// is the first such failure.
	failed int
	err    error
}

func (s *sample) fail(err error) {
	s.failed++
	if s.err == nil {
		s.err = err
	}
}

var errDeadline = fmt.Errorf("hard deadline of %d s exceeded", hardDeadlineS)

// runSteps drives an engine to its termination condition under the hard
// deadline, which is checked every 1024 cycles so it costs nothing.
func runSteps(e *core.Engine) error {
	deadline := time.Now().Add(hardDeadlineS * time.Second)
	for !e.Done() {
		e.Step()
		if e.Now()&1023 == 0 && time.Now().After(deadline) {
			return errDeadline
		}
	}
	return nil
}

// runEngine is one untraced iteration of a config workload: construct
// through core.NewEngine, then step the engine to Done. The collections
// before each clock starts keep the previous iteration's garbage out of
// this one's peak memory and this set-up's garbage out of the run's time.
func runEngine(c core.Config) sample {
	var s sample
	runtime.GC()
	t0 := time.Now()
	e, err := core.NewEngine(c)
	s.setupS = time.Since(t0).Seconds()
	if err != nil {
		s.fail(err)
		return s
	}
	runtime.GC()

	t1 := time.Now()
	err = runSteps(e)
	s.wallS = time.Since(t1).Seconds()
	if err != nil {
		s.fail(err)
		return s
	}
	s.results = []metrics.Results{e.Finalize()}
	s.cycles = e.Now()
	return s
}

// tracedEngine mirrors core.Engine over an engine whose router, source
// and schedule are timing decorators.
type tracedEngine struct {
	nw           *network.Network
	col          *metrics.Collector
	sources      int
	quota        uint64
	limit        int64
	backlogLimit int
	saturated    bool
}

func (e *tracedEngine) Step()      { e.nw.Step() }
func (e *tracedEngine) Now() int64 { return e.nw.Now() }

func (e *tracedEngine) Done() bool {
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

func (e *tracedEngine) Finalize() metrics.Results {
	return e.col.Finalize(e.nw.Now(), e.sources, e.saturated)
}

// chaosWindow mirrors core's unexported window length for scheduled runs.
const chaosWindow = 1000

// newTracedEngine rebuilds the point from the public constructors in
// core.NewEngine's order, with the same rng.Split labels, handing the
// engine timing decorators in place of the bare router, source and
// schedule. Each set-up part is a span under parent. That the mirror and
// the decorators are transparent is not assumed: every traced run's
// digest is compared with the untraced one.
func newTracedEngine(c core.Config, tr *tracer, parent int) (*tracedEngine, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.MaxCycles <= 0 || c.SaturationBacklog <= 0 || c.CaptureWorkload != nil {
		return nil, errors.New("bench: traced configs set MaxCycles and SaturationBacklog and capture nothing")
	}
	id := tr.begin("topology.build", parent)
	t, err := c.BuildTopology()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("fault.build", parent)
	fs, err := core.BuildFaults(t, c.Faults, c.Seed)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	newAlg := func() (routing.Router, error) {
		a, err := routing.New(c.AlgorithmName(), t, fs, c.V)
		if err != nil {
			return nil, err
		}
		w := tr.wrapRouter(a)
		if c.Escalation > 0 {
			w.SetEscalation(c.Escalation)
		}
		return w, nil
	}
	id = tr.begin("routing.build", parent)
	alg, err := newAlg()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	r := rng.New(c.Seed)
	sources := fs.HealthyNodes()
	id = tr.begin("message.pool_build", parent)
	pool := message.NewPool(t.N(), c.NoArena)
	tr.end(id)

	id = tr.begin("traffic.build", parent)
	pattern, err := traffic.NewPattern(c.PatternSpec(), t, fs)
	var src traffic.Source
	if err == nil {
		src, err = traffic.NewSource(c.TrafficSpec(), traffic.Env{
			T: t, F: fs, Sources: sources, Lambda: c.Lambda, MsgLen: c.MsgLen,
			Mode: alg.BaseMode(), Pattern: pattern, R: r.Split(1), Pool: pool,
		})
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.source = &timedSource{Source: src}

	col := metrics.NewCollector(c.WarmupMessages)
	params := network.Params{
		V: c.V, BufDepth: c.BufDepth, Td: c.Td, Delta: c.Delta,
		NoReinjectPriority: c.NoReinjectPriority,
		LinkLatency:        c.LinkLatency, CreditDelay: c.CreditDelay,
		DenseScan: c.DenseScan, DenseVCScan: c.DenseVCScan,
		NoLinkCache: c.NoLinkCache, NoArena: c.NoArena, GlobalRNG: c.GlobalRNG,
		Workers: c.Workers, Pool: pool,
	}
	if c.Workers > 1 {
		params.AlgFactory = newAlg
	}
	// As in core.NewEngine, the engine stream splits before the schedule
	// stream.
	engineStream := r.Split(2)
	if c.FaultSchedule != "" {
		sched, err := fault.NewSchedule(c.FaultSchedule, fault.ScheduleEnv{
			T: t, Base: fs, R: r.Split(rng.ScheduleLabel()),
		})
		if err != nil {
			return nil, err
		}
		tr.sched = &timedSchedule{Schedule: sched}
		params.Schedule = tr.sched
		col.EnableWindows(chaosWindow)
	}
	id = tr.begin("network.build", parent)
	nw := network.New(t, fs, alg, tr.source, col, params, engineStream)
	tr.end(id)
	return &tracedEngine{
		nw: nw, col: col, sources: len(sources),
		quota: uint64(c.MeasureMessages), limit: c.MaxCycles, backlogLimit: c.SaturationBacklog,
	}, nil
}

// steadyAfter is the cycle after which a run counts as steady state for
// the allocation rate (or half the cycle bound, if that is sooner): queues
// and worklists have reached their working size by then.
const steadyAfter = 2048

// engineTrace is what the traced step loop records beyond the decorators.
type engineTrace struct {
	// stepUs holds every Step's duration; transitionUs those of cycles on
	// which the schedule returned transitions.
	stepUs, transitionUs []float64
	// steadyMallocs and steadyCycles cover the run after steadyAfter.
	steadyMallocs uint64
	steadyCycles  int64
	workers       int
}

// runTracedEngine is one traced iteration of a config workload: a single
// mirrored construction, then a step loop that times every Step.
func runTracedEngine(c core.Config, tr *tracer) (sample, engineTrace) {
	var s sample
	et := engineTrace{stepUs: make([]float64, 0, c.MaxCycles)}
	var ms1, ms2 runtime.MemStats

	setup := tr.begin("setup", 0)
	e, err := newTracedEngine(c, tr, setup)
	s.setupS = tr.end(setup).Seconds()
	if err != nil {
		s.fail(err)
		return s, et
	}
	et.workers = e.nw.Workers()
	runtime.GC()

	run := tr.begin("run", 0)
	deadline := time.Now().Add(hardDeadlineS * time.Second)
	steadyFrom, steady := min(c.MaxCycles/2, steadyAfter), false
	for !e.Done() {
		if e.Now() == steadyFrom {
			runtime.ReadMemStats(&ms1)
			steady = true
		}
		t0 := time.Now()
		e.Step()
		us := float64(time.Since(t0)) / 1e3
		et.stepUs = append(et.stepUs, us)
		if tr.sched != nil && tr.sched.fired {
			et.transitionUs = append(et.transitionUs, us)
		}
		if e.Now()&1023 == 0 && time.Now().After(deadline) {
			err = errDeadline
			break
		}
	}
	s.wallS = tr.end(run).Seconds()
	runtime.ReadMemStats(&ms2)
	if err != nil {
		s.fail(err)
		return s, et
	}
	if steady {
		et.steadyCycles = e.Now() - steadyFrom
		et.steadyMallocs = ms2.Mallocs - ms1.Mallocs
	}
	s.results = []metrics.Results{e.Finalize()}
	s.cycles = e.Now()
	return s, et
}
