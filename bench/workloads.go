package main

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/sweep"
)

// width is the load generator's parallelism: sweep-pool width, engine
// workers, fleet workers and their HTTP connections. The protocol caps it
// at two so the reference two-core box and a larger one run the same shape.
func width() int {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		return n
	}
	return 2
}

// Fleet client cadences. Poll intervals quantise fleet-tiny's wall_s, so
// they are constants of the benchmark, recorded in every trace file.
const (
	fleetIdlePollMs   = 10
	fleetClientPollMs = 20
	fleetResubmits    = 10
)

// hardDeadlineS is the per-iteration hard deadline: a workload that has
// not finished by then has its operations counted failed instead of
// hanging the process.
const hardDeadlineS = 60

// workload is one benchmark workload. Exactly one of config and plan is
// set: config workloads step one engine, plan workloads run many points
// through the sweep pool (or, with fleet, through the coordinator).
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why string
	// config builds the single simulation point from the run seed.
	config func(seed uint64) core.Config
	// plan builds the sweep plan from the run seed.
	plan func(seed uint64) sweep.Plan
	// fleet routes the plan through coord.Server + in-process workers.
	fleet bool
}

// workloads is the registry; names are fixed (later issues cite them).
// Work per iteration is fixed and sized so that one iteration takes about
// a second on the two-core reference box; a run of -seconds repeats it.
var workloads = []workload{
	{
		name: "fig4-faulted",
		why:  "paper core case: 8-ary 3-cube, SW-Based det, 12 node faults, mid load; lanes mostly empty, absorb-replan-reinject path exercised",
		config: func(seed uint64) core.Config {
			c := baseConfig("torus:k=8,n=3", "det", 6, 0.008, seed)
			c.Faults.RandomNodes = 12
			c.WarmupMessages = 1000
			c.MeasureMessages = 15000
			c.MaxCycles = 500_000
			return c
		},
	},
	{
		name: "sat-adaptive",
		why:  "past saturation: 16-ary 2-cube, adaptive, hotspot x burst; every lane holds flits, so Route on blocked heads, VC allocation and arbitration dominate",
		config: func(seed uint64) core.Config {
			c := baseConfig("torus:k=16,n=2", "adaptive", 6, 0.014, seed)
			c.Faults.RandomNodes = 6
			c.Pattern = "hotspot:frac=0.05"
			c.Traffic = "burst:on=50,off=200"
			c.WarmupMessages = 0
			c.MeasureMessages = 1 << 30 // never met: the cycle bound ends the run
			c.MaxCycles = 3000
			return c
		},
	},
	{
		name: "scale-par",
		why:  "32-ary 3-cube (32768 routers) on AutoWorkers engine workers; only workload where construction, memory and the barrier matter",
		config: func(seed uint64) core.Config {
			c := baseConfig("torus:k=32,n=3", "det", 4, 0.0005, seed)
			c.WarmupMessages = 0
			c.MeasureMessages = 1 << 30
			c.MaxCycles = 200
			c.Workers = core.AutoWorkers(32 * 32 * 32)
			return c
		},
	},
	{
		name: "chaos-sparse",
		why:  "near-idle 24-ary 2-cube under mtbf fault churn: worklist, event heap, Schedule.Advance and purge/RefreshFaults are the cost",
		config: func(seed uint64) core.Config {
			c := baseConfig("torus:k=24,n=2", "det", 4, 0.0002, seed)
			c.FaultSchedule = "mtbf:mtbf=2000,mttr=10000"
			c.WarmupMessages = 0
			c.MeasureMessages = 1 << 30
			c.MaxCycles = 120_000
			return c
		},
	},
	{
		name: "fig3-sweep",
		why:  "figure regeneration: 36-point Fig. 3 grid through sweep.Run with a fresh journal; per-point NewEngine, pool and journal show",
		plan: fig3Plan,
	},
	{
		name:  "fleet-tiny",
		why:   "service overhead: hundreds of sub-ms points through coord.Server over HTTP plus cached resubmits; lease/submit cost dominates",
		plan:  fleetPlan,
		fleet: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// baseConfig is the paper's baseline point (32-flit messages, 2-flit
// buffers, uniform Poisson traffic) on the given network. Every bench
// config sets MaxCycles and SaturationBacklog explicitly, so the traced
// mirror of core.NewEngine never has to reproduce core's derived defaults.
func baseConfig(topo, alg string, v int, lambda float64, seed uint64) core.Config {
	c := core.DefaultConfig(0, 0, lambda)
	c.Topology = topo
	c.Algorithm = alg
	c.V = v
	c.Seed = seed
	c.SaturationBacklog = 1 << 30 // disabled: work per iteration is fixed
	return c
}

// fig3Plan is a Fig. 3 quick-scale grid on the 8-ary 2-cube:
// V x nf x algorithm x lambda = 36 short points.
func fig3Plan(seed uint64) sweep.Plan {
	plan := sweep.Plan{Name: "fig3-sweep"}
	for _, v := range []int{4, 6} {
		for _, nf := range []int{0, 3, 5} {
			for _, alg := range []string{"det", "adaptive"} {
				for _, l := range []float64{0.002, 0.004, 0.006} {
					c := baseConfig("torus:k=8,n=2", alg, v, l, seed)
					c.Faults.RandomNodes = nf
					c.WarmupMessages = 200
					c.MeasureMessages = 1200
					c.MaxCycles = 500_000
					plan.Points = append(plan.Points, core.Point{
						Label:  fmt.Sprintf("%s V=%d nf=%d l=%g", alg, v, nf, l),
						Config: c,
					})
				}
			}
		}
	}
	return plan
}

// fleetPoints is fleet-tiny's plan size.
const fleetPoints = 600

// fleetPlan is many sub-millisecond points: a 4-ary 2-cube delivering 20
// messages, one point per seed.
func fleetPlan(seed uint64) sweep.Plan {
	plan := sweep.Plan{Name: "fleet-tiny"}
	for i := 0; i < fleetPoints; i++ {
		c := baseConfig("torus:k=4,n=2", "det", 4, 0.004, seed*1_000_003+uint64(i))
		c.WarmupMessages = 0
		c.MeasureMessages = 20
		c.MaxCycles = 500_000
		plan.Points = append(plan.Points, core.Point{Label: fmt.Sprintf("tiny %d", i), Config: c})
	}
	return plan
}
