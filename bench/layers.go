package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// iterate runs one untraced iteration of the workload.
func (w workload) iterate(seed uint64, dir string) sample {
	switch {
	case w.config != nil:
		return runEngine(w.config(seed))
	case w.fleet:
		s, _ := runFleet(w, seed, dir, nil)
		return s
	default:
		return runSweep(w, seed, dir)
	}
}

// points returns the workload's simulation points for seed.
func (w workload) points(seed uint64) []core.Point {
	if w.config != nil {
		return []core.Point{{Label: w.name, Config: w.config(seed)}}
	}
	return w.plan(seed).Points
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// tracedResult is the outcome of a traced run of one workload.
type tracedResult struct {
	// refWallS and tracedWallS are the fastest run-phase times of the
	// untraced and the traced iterations; points is the plan size.
	refWallS, tracedWallS float64
	points                int
	metrics               map[string]float64
	tracePath             string
	// problems lists every failed cross-check (digest mismatches).
	problems []string
}

// tracedIteration is one traced iteration of a workload with everything it
// recorded.
type tracedIteration struct {
	sample
	tr         *tracer
	engine     engineTrace
	fleet      fleetStats
	cpuS       float64
	allocBytes uint64
}

func (w workload) iterateTraced(seed uint64, dir string) tracedIteration {
	it := tracedIteration{tr: newTracer()}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	switch {
	case w.config != nil:
		it.sample, it.engine = runTracedEngine(w.config(seed), it.tr)
	case w.fleet:
		it.sample, it.fleet = runFleet(w, seed, dir, it.tr)
	default:
		it.sample = runTracedSweep(w, seed, dir, it.tr)
	}
	it.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	it.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return it
}

// tracedRun produces the per-layer metrics of one workload. Untraced and
// traced iterations alternate for d (two of each at least); every digest,
// traced or not, must equal the first untraced one, and the two fastest
// run-phase times give the tracing overhead. The layer rows come from the
// fastest traced iteration, followed by the workload's extra comparisons
// (serial engine for scale-par, local pool for fleet-tiny, the analytic
// model for fig3-sweep) and the isolated kernels.
func tracedRun(w workload, seed uint64, dir string, d, kernelBudget time.Duration) (tracedResult, error) {
	pts := w.points(seed)
	res := tracedResult{metrics: map[string]float64{}, points: len(pts)}
	m := res.metrics
	for _, def := range perLayer {
		m[def.Name] = 0
	}

	var refDigest workDigest
	sameDigest := func(what string, s sample) error {
		dg, err := digestResults(s.results)
		if err != nil {
			return err
		}
		if refDigest.Digest == "" {
			refDigest = dg
		} else if diff := dg.difference(refDigest); diff != "" {
			res.problems = append(res.problems, fmt.Sprintf("%s digest differs from the untraced run: %s", what, diff))
		}
		return nil
	}
	var refWalls, tracedWalls, firstPass, cached []float64
	var it tracedIteration // the fastest traced iteration so far
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < d; i++ {
		var ref sample
		if w.fleet {
			var fs fleetStats
			ref, fs = runFleet(w, seed, dir, nil)
			firstPass, cached = append(firstPass, fs.firstPassS), append(cached, fs.cachedS)
		} else {
			ref = w.iterate(seed, dir)
		}
		if ref.err != nil {
			return res, fmt.Errorf("untraced reference run: %w", ref.err)
		}
		if err := sameDigest("untraced", ref); err != nil {
			return res, err
		}
		traced := w.iterateTraced(seed, dir)
		if traced.err != nil {
			return res, fmt.Errorf("traced run: %w", traced.err)
		}
		if err := sameDigest("traced", traced.sample); err != nil {
			return res, err
		}
		refWalls, tracedWalls = append(refWalls, ref.wallS), append(tracedWalls, traced.wallS)
		if it.tr == nil || traced.wallS < it.wallS {
			it = traced
		}
	}
	res.refWallS, res.tracedWallS = fastest(refWalls), fastest(tracedWalls)
	m["trace.overhead_pct"] = (res.tracedWallS/res.refWallS - 1) * 100
	tr := it.tr
	m["core.cpu_s"] = it.cpuS
	m["core.alloc_mb"] = float64(it.allocBytes) / (1 << 20)

	// Simulated statistics: exact and host-independent.
	for _, r := range it.results {
		m["metrics.delivered"] += float64(r.Delivered)
		m["metrics.queued"] += float64(r.QueuedTotal())
		m["metrics.reinjected"] += float64(r.Reinjected)
		m["metrics.lost"] += float64(r.Lost)
		m["metrics.mean_latency_cycles"] += r.MeanLatency / float64(res.points)
		m["metrics.throughput"] += r.Throughput / float64(res.points)
	}
	m["network.cycles"] = float64(it.cycles)
	if delivered := m["metrics.delivered"]; delivered > 0 {
		m["network.ns_per_delivered_msg"] = it.wallS * 1e9 / delivered
	}

	recoverPath := ""
	if w.config != nil {
		engineLayerMetrics(m, tr, it.engine)
		m["core.new_engine_ms_p50"] = it.setupS * 1e3
		if c := w.config(seed); c.Workers > 1 {
			c.Workers = 1
			serial := runEngine(c)
			if serial.err != nil {
				return res, fmt.Errorf("serial run: %w", serial.err)
			}
			if err := sameDigest("serial", serial); err != nil {
				return res, err
			}
			m["network.par_speedup"] = serial.wallS / res.refWallS
		}
	} else {
		// The pool and the fleet build their engines inside core.Run, out
		// of a decorator's reach: the first points of the plan are built
		// once more here, through core.NewEngine for the construction time
		// and through the traced mirror for its parts.
		var build []float64
		for i := 0; i < len(pts) && i < planBuildSample; i++ {
			t0 := time.Now()
			if _, err := core.NewEngine(pts[i].Config); err != nil {
				return res, err
			}
			build = append(build, float64(time.Since(t0))/1e6)
			if _, err := newTracedEngine(pts[i].Config, tr, 0); err != nil {
				return res, err
			}
		}
		m["core.new_engine_ms_p50"] = median(build)
	}
	for _, part := range []string{"topology.build", "fault.build", "message.pool_build", "traffic.build", "routing.build", "network.build"} {
		m[part+"_s"] = tr.spanSeconds(part)
	}

	switch {
	case w.fleet:
		recoverPath = filepath.Join(dir, "fleet.jsonl")
		lease, result := tr.layer("http/v1/lease"), tr.layer("http/v1/result")
		m["coord.lease_rtt_us_p50"] = lease.quantileNs(0.5) / 1e3
		m["coord.result_rtt_us_p50"] = result.quantileNs(0.5) / 1e3
		handler := tr.layer("coord.handler")
		m["coord.handler_busy_s"] = handler.busySeconds()
		m["coord.idle_polls"] = float64(lease.Calls) - float64(it.fleet.status.ResultsAccepted)
		m["coord.lease_expired"] = float64(it.fleet.status.Expired)
		m["coord.late_results"] = float64(it.fleet.status.LateResults)
		m["coord.cached_points_per_s"] = float64(fleetResubmits*res.points) / fastest(cached)
		// The same plan on the local pool, twice for a fastest-of-two like
		// the fleet's: the difference per point is the service's overhead.
		var localWalls []float64
		for i := 0; i < 2; i++ {
			local := runSweep(w, seed, dir)
			if local.err != nil {
				return res, fmt.Errorf("local pool run: %w", local.err)
			}
			if err := sameDigest("local pool", local); err != nil {
				return res, err
			}
			localWalls = append(localWalls, local.wallS)
		}
		m["coord.overhead_us_per_point"] = (fastest(firstPass) - fastest(localWalls)) * 1e6 / float64(res.points)
	case w.plan != nil:
		recoverPath = filepath.Join(dir, w.name+".jsonl")
		points := tr.spanDurations("sweep.point")
		busy := 0.0
		for i := range points {
			busy += points[i]
			points[i] *= 1e3
		}
		tail := tailPercentile(len(points), 95)
		m["sweep.point_p50_ms"] = median(points)
		m["sweep.point_p95_ms"] = percentile(points, tail)
		m["sweep.point_tail_pct"] = tail
		m["sweep.pool_efficiency"] = busy / (it.wallS * float64(width()))
		if err := modelError(m, pts, it.results); err != nil {
			return res, err
		}
	}

	ks := kernelShape{
		cfg: pts[0].Config, points: pts, dir: dir, budget: kernelBudget,
		record:      sweep.NewRecord("kernel", core.PointResult{Results: it.results[0]}),
		recoverPath: recoverPath,
	}
	if err := runKernels(ks, m); err != nil {
		return res, fmt.Errorf("kernels: %w", err)
	}
	if w.plan != nil && !w.fleet {
		// The traced sweep journals in place; that figure, not the
		// kernel's, is the workload's.
		journal := tr.layer("sweep.journal_append")
		m["sweep.journal_append_us"] = float64(journal.BusyNs) / float64(journal.Calls) / 1e3
	}

	var err error
	res.tracePath, err = tr.writeFile(w.name, seed, m)
	return res, err
}

// planBuildSample is how many leading points of a plan are built once more
// for the construction rows.
const planBuildSample = 100

// engineLayerMetrics fills the rows the decorators and the step loop of a
// traced engine run provide.
func engineLayerMetrics(m map[string]float64, tr *tracer, et engineTrace) {
	route, plan, refresh, absorbs := tr.routerTotals()
	m["routing.route_calls"] = float64(route.Calls)
	m["routing.route_busy_s"] = route.busySeconds()
	m["routing.route_ns_p50"] = route.quantileNs(0.5)
	if route.Calls > 0 {
		m["routing.absorb_share"] = float64(absorbs) / float64(route.Calls)
	}
	m["routing.plan_calls"] = float64(plan.Calls)
	m["routing.plan_busy_s"] = plan.busySeconds()
	m["routing.refresh_calls"] = float64(refresh.Calls)
	m["routing.refresh_busy_s"] = refresh.busySeconds()

	m["traffic.poll_calls"] = float64(tr.source.poll.Calls)
	m["traffic.poll_busy_s"] = tr.source.poll.busySeconds()
	m["traffic.msgs_generated"] = float64(tr.source.generated)
	scheduleBusy := 0.0
	if tr.sched != nil {
		scheduleBusy = tr.sched.advance.busySeconds()
		m["fault.advance_busy_s"] = scheduleBusy
		m["fault.transitions"] = float64(tr.sched.transitions)
	}

	tail := tailPercentile(len(et.stepUs), 99)
	m["network.step_p50_us"] = median(et.stepUs)
	m["network.step_p99_us"] = percentile(et.stepUs, tail)
	m["network.step_tail_pct"] = tail
	m["network.transition_step_us"] = median(et.transitionUs)
	stepS := 0.0
	for _, us := range et.stepUs {
		stepS += us / 1e6
	}
	// Routing runs inside the workers' parallel phases, so on a parallel
	// engine its summed busy time covers 1/workers of that much wall time.
	routingS := (route.busySeconds() + plan.busySeconds() + refresh.busySeconds()) / float64(max(et.workers, 1))
	m["network.step_self_s"] = stepS - routingS - tr.source.poll.busySeconds() - scheduleBusy
	if et.steadyCycles > 0 {
		m["network.allocs_per_kcycle"] = float64(et.steadyMallocs) * 1000 / float64(et.steadyCycles)
	}
}

// modelError fills analytic.model_err_pct: the analytic model against the
// simulator on the plan's fault-free, lambda = 0.002, det, V = 4 point.
// The repository holds no reference curves from the paper, so the model is
// the only reference there is.
func modelError(m map[string]float64, pts []core.Point, results []metrics.Results) error {
	for i, pt := range pts {
		c := pt.Config
		if c.V != 4 || c.Algorithm != "det" || c.Lambda != 0.002 || !c.Faults.Empty() {
			continue
		}
		model := analytic.Model{K: 8, N: 2, V: c.V, M: c.MsgLen, Lambda: c.Lambda}
		want, err := model.MeanLatency()
		if err != nil {
			return fmt.Errorf("analytic model: %w", err)
		}
		sim := results[i].MeanLatency
		m["analytic.model_err_pct"] = math.Abs(want-sim) / sim * 100
		return nil
	}
	return nil
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
