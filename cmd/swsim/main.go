// Command swsim runs Software-Based routing simulation points and prints
// result rows. The topology, routing algorithm, destination pattern and
// arrival process are all selected by registry spec (-topo, -alg,
// -pattern, -traffic; -list enumerates everything available).
//
// Examples:
//
//	swsim -k 8 -n 2 -v 4 -m 32 -lambda 0.006 -faults 3
//	swsim -topo mesh:k=8,n=2 -alg adaptive -v 4 -lambda 0.004
//	swsim -topo hypercube:n=6 -v 4 -lambda 0.004
//	swsim -topo 'torus:k=8,n=2,latmap=lat.csv' -v 4 -lambda 0.004
//	swsim -k 8 -n 3 -v 10 -m 32 -lambda 0.01 -faults 12 -alg adaptive
//	swsim -k 8 -n 2 -v 6 -m 32 -lambda 0.006 -pattern transpose -alg valiant
//	swsim -k 8 -n 2 -v 6 -m 32 -lambda 0.006 -traffic 'burst:on=50,off=200,rate=0.02'
//	swsim -k 8 -n 2 -v 6 -m 32 -lambda 0.006 -pattern 'hotspot:frac=0.1,node=12'
//	swsim -k 8 -n 2 -v 4 -m 32 -lambda 0.006 -workload-out w.csv
//	swsim -k 8 -n 2 -v 4 -m 32 -traffic 'replay:file=w.csv'
//	swsim -k 8 -n 2 -v 10 -m 32 -lambda 0.012 -shape U -warmup 10000 -measure 90000
//	swsim -topo torus:k=32,n=3 -v 4 -lambda 0.0005 -engine-workers 4
//	swsim -k 8 -n 2 -v 4 -lambda 0.004 -faults-schedule 'mtbf:mtbf=20000,mttr=2000'
//	swsim -k 8 -n 2 -v 4 -lambda 0.004 -faults-schedule 'trace:file=events.csv'
//
// -faults-schedule makes the run dynamic: fail/heal transitions from the
// schedule registry apply mid-run on top of -faults, and a second CSV row
// reports the chaos metrics (transitions, re-injections, losses, mean
// rerouting convergence, minimum windowed availability). Dynamic runs
// keep the determinism contract: results are bit-identical at every
// -engine-workers width.
//
// -engine-workers splits one simulation's routers across a phase-barriered
// worker pool; results are bit-identical at every width. The default
// "auto" scales with topology size on single-point runs and stays serial
// in sweep modes, which parallelize across points instead.
//
// With -sweep, swsim runs one point per λ of a grid through the sweep
// subsystem: -checkpoint makes the run resumable after interruption, and
// -coordinator splits it across a fleet of -worker processes on any hosts:
//
//	swsim -sweep 0.002:0.014:0.002 -k 8 -n 2 -v 4
//	swsim -sweep 0.002:0.014:0.002 -checkpoint sweep.jsonl   # kill and re-run freely
//	swsim -serve addr=:8080,checkpoint=coord.jsonl &
//	swsim -worker url=http://localhost:8080 &
//	swsim -sweep 0.002:0.014:0.002 -coordinator http://localhost:8080
//
// -find-sat replaces the λ grid with a bisection auto-search for the
// saturation point (the λ where mean latency crosses -sat-factor times
// the zero-load latency):
//
//	swsim -find-sat -k 8 -n 2 -v 6 -alg adaptive
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/sweepcli"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("swsim", flag.ContinueOnError)
	fl.SetOutput(stderr)
	def := core.DefaultConfig(8, 2, 0)
	def.Algorithm = "det"
	var (
		config  = core.BindFlags(fl, def) // -topo -k -n -alg -v -m -faults -shape -seed
		buf     = fl.Int("buf", 2, "per-VC buffer depth in flits")
		lambda  = fl.Float64("lambda", 0.004, "generation rate (messages/node/cycle)")
		list    = fl.Bool("list", false, "list registered topologies, algorithms, patterns and sources, then exit")
		sched   = fl.String("faults-schedule", "", "dynamic fault schedule spec: trace:file=<f> or mtbf:mtbf=<c>,mttr=<c> (see -list)")
		pattern = fl.String("pattern", "uniform", "destination pattern spec (see -list)")
		traf    = fl.String("traffic", "poisson", "arrival process spec (see -list)")
		wlOut   = fl.String("workload-out", "", "capture the generated workload to this CSV file (replay with -traffic 'replay:file=...')")
		warmup  = fl.Int("warmup", 1000, "warm-up messages (unmeasured)")
		measure = fl.Int("measure", 10000, "measured message deliveries")
		td      = fl.Int64("td", 0, "router decision time (cycles)")
		delta   = fl.Int64("delta", 0, "software re-injection overhead (cycles)")
		quiet   = fl.Bool("q", false, "print only the CSV row")
		jsonOut = fl.Bool("json", false, "emit config and results as JSON instead of CSV")

		sweepGrid  = fl.String("sweep", "", "λ sweep instead of a single point: comma list '0.002,0.004' or range 'lo:hi:step'")
		sweepFlags = sweepcli.Register(fl) // -workers -checkpoint -coordinator
		engWorkers = fl.String("engine-workers", "auto", "engine worker domains per simulation: an integer >= 1, or 'auto' (scales with topology size for single-point runs; sweep modes keep each engine serial and parallelize across points instead)")
		findSat    = fl.Bool("find-sat", false, "bisection auto-search for the saturation λ instead of a fixed grid")
		satFactor  = fl.Float64("sat-factor", 3, "saturation threshold as a multiple of zero-load latency (with -find-sat)")

		serveSpec  = fl.String("serve", "", "run as a sweep coordinator: 'addr=:8080,checkpoint=coord.jsonl[,lease=15s][,retries=3]' (ignores simulation flags)")
		workerSpec = fl.String("worker", "", "run as a sweep worker: 'url=http://host:8080[,name=w1][,exit=drain|never][,stall=5s][,engine-workers=N]'")

		cpuprofile = fl.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with 'go tool pprof')")
		memprofile = fl.String("memprofile", "", "write an end-of-run heap profile to this file (inspect with 'go tool pprof')")
	)
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	exit := exiter(stderr)

	if *list {
		core.PrintRegistries(stdout, "")
		return 0
	}

	// The service modes are standalone processes: they take no simulation
	// flags (the coordinator never simulates; the worker gets its configs
	// from leased points).
	switch {
	case *serveSpec != "" && *workerSpec != "":
		return exit(2, "-serve and -worker are separate processes (start one of each)")
	case *serveSpec != "":
		return runServe(*serveSpec, stderr)
	case *workerSpec != "":
		return runWorker(*workerSpec, stderr)
	}

	cfg, topoNet, err := config()
	if err != nil {
		return exit(2, "%v", err)
	}
	cfg.Lambda = *lambda
	cfg.BufDepth = *buf
	if err := cfg.CheckWidths(); err != nil {
		return exit(2, "%v", err)
	}
	cfg.Pattern = *pattern
	cfg.Traffic = *traf
	var captured trace.Workload
	if *wlOut != "" {
		cfg.CaptureWorkload = &captured
	}
	cfg.WarmupMessages = *warmup
	cfg.MeasureMessages = *measure
	cfg.Td = *td
	cfg.Delta = *delta
	cfg.FaultSchedule = *sched

	if *wlOut != "" && (*findSat || *sweepGrid != "") {
		return exit(2, "-workload-out applies to single-point runs only")
	}
	if *findSat && *sweepGrid != "" {
		return exit(2, "-find-sat and -sweep are mutually exclusive (the search picks its own λ probes)")
	}
	// Negated so NaN is refused too.
	if *findSat && !(*satFactor > 1) {
		return exit(2, "bad -sat-factor %g (want a multiple of zero-load latency above 1)", *satFactor)
	}
	mode := sweepcli.Point
	switch {
	case *sweepGrid != "":
		mode = sweepcli.Grid
	case *findSat:
		mode = sweepcli.Search
	}
	door, runPlan, err := sweepFlags.Validate(mode, stderr)
	if err != nil {
		return exit(2, "%v", err)
	}
	var grid []float64
	if *sweepGrid != "" {
		grid, err = parseGrid(*sweepGrid)
		if err != nil {
			return exit(2, "%v", err)
		}
	}
	ew, warn, err := resolveEngineWorkers(*engWorkers, topoNet.Nodes(), *findSat || *sweepGrid != "")
	if err != nil {
		return exit(2, "%v", err)
	}
	if warn != "" {
		fmt.Fprintf(stderr, "swsim: warning: %s\n", warn)
	}
	cfg.Workers = ew
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile, stderr)
	if err != nil {
		return exit(2, "%v", err)
	}
	defer stopProfiles()

	switch {
	case *findSat:
		return runFindSat(cfg, door.Local, *satFactor, *quiet, *jsonOut, stdout, stderr)
	case *sweepGrid != "":
		return runSweepGrid(cfg, grid, runPlan, *quiet, *jsonOut, stdout, stderr)
	}

	start := time.Now()
	res, err := core.Run(cfg)
	if err != nil {
		return exit(1, "%v", err)
	}
	elapsed := time.Since(start)

	if *wlOut != "" {
		f, err := os.Create(*wlOut)
		if err != nil {
			return exit(1, "%v", err)
		}
		werr := captured.Write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return exit(1, "writing workload: %v", werr)
		}
		fmt.Fprintf(stderr, "swsim: captured %d workload records to %s\n", captured.Len(), *wlOut)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Config   core.Config
			Results  any
			WallTime string
		}{cfg, res, elapsed.Round(time.Millisecond).String()}); err != nil {
			return exit(1, "%v", err)
		}
		return 0
	}

	if !*quiet {
		fmt.Fprintf(stdout, "# %s, %s routing, V=%d, M=%d flits, λ=%g, traffic=%s, pattern=%s, faults=%d%s\n",
			cfg.Topology, cfg.Algorithm, cfg.V, cfg.MsgLen, cfg.Lambda, cfg.TrafficSpec(), cfg.PatternSpec(), cfg.Faults.RandomNodes, shapeNote(cfg.Faults))
		fmt.Fprintf(stdout, "# wall time: %v, simulated cycles: %d\n", elapsed.Round(time.Millisecond), res.Cycles)
		fmt.Fprintln(stdout, csvHeader)
	}
	fmt.Fprintln(stdout, csvRow(cfg.Lambda, res))
	if cfg.FaultSchedule != "" {
		if !*quiet {
			fmt.Fprintln(stdout, chaosHeader)
		}
		fmt.Fprintln(stdout, chaosRow(res))
	}
	return 0
}

// exiter returns the function a mode ends with when it refuses a command
// line (code 2) or a run fails (code 1): the message goes to stderr, the
// code back to main.
func exiter(stderr io.Writer) func(code int, format string, a ...any) int {
	return func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "swsim: "+format+"\n", a...)
		return code
	}
}

// startProfiles begins CPU profiling and arranges the end-of-run heap
// profile, both optional (empty path = off). The returned stop function
// flushes them; run defers it, so the profiles survive every exit path,
// failed runs included. The heap profile is taken after a forced GC so it
// shows live retained memory (the arena, link tables, buffers), not
// collected garbage.
func startProfiles(cpu, mem string, stderr io.Writer) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(stderr, "swsim: closing cpu profile: %v\n", err)
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(stderr, "swsim: %v\n", err)
				return
			}
			runtime.GC()
			werr := pprof.WriteHeapProfile(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintf(stderr, "swsim: writing heap profile: %v\n", werr)
			}
		}
	}, nil
}

// csvHeader and csvRow define the one-row-per-point output format shared
// by single-point and sweep modes, so a fleet-served sweep's output
// diffs clean against a single-process run.
const csvHeader = "lambda,mean_latency,ci95,p50,p95,p99,throughput,accepted,delivered,queued_fault,queued_via,saturated"

func csvRow(lambda float64, res metrics.Results) string {
	return fmt.Sprintf("%g,%.2f,%.2f,%.0f,%.0f,%.0f,%.6f,%.4f,%d,%d,%d,%v",
		lambda, res.MeanLatency, res.LatencyCI95, res.P50, res.P95, res.P99,
		res.Throughput, res.AcceptedFraction, res.Delivered, res.QueuedFault, res.QueuedVia, res.Saturated)
}

// chaosHeader and chaosRow report the dynamic-fault metrics of a
// scheduled run as a second CSV row. Like the main row the values are a
// pure function of Results, so worker-count comparisons diff clean.
const chaosHeader = "transitions,reinjected,lost,mean_convergence,min_availability"

func chaosRow(res metrics.Results) string {
	return fmt.Sprintf("%d,%d,%d,%.1f,%.4f",
		res.Transitions, res.Reinjected, res.Lost, res.MeanConvergence, res.MinAvailability)
}

// maxGridPoints bounds a -sweep range: a step too small for its span
// would otherwise ask for more points than any sweep could run.
const maxGridPoints = 10000

// parseGrid parses the -sweep argument: either an explicit comma list
// ("0.002,0.004,0.006") or an inclusive range with step ("lo:hi:step").
func parseGrid(s string) ([]float64, error) {
	if strings.Contains(s, ":") {
		lo, hi, step, err := parseRange(s)
		if err != nil {
			return nil, err
		}
		// Count the points first: a step below lo's float resolution never
		// advances. The epsilon absorbs rounding, never admits a point past
		// hi; points are integer multiples of step, so none drops or doubles.
		n := math.Floor((hi-lo)/step+1e-9) + 1
		if n > maxGridPoints {
			return nil, fmt.Errorf("bad sweep range %q (%g points, more than %d)", s, n, maxGridPoints)
		}
		grid := make([]float64, int(n))
		for i := range grid {
			grid[i] = lo + float64(i)*step
		}
		return grid, nil
	}
	var grid []float64
	for _, part := range strings.Split(s, ",") {
		l, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		// Negated comparison so NaN (every comparison false) is rejected.
		if err != nil || !(l > 0) || math.IsInf(l, 1) {
			return nil, fmt.Errorf("bad sweep value %q (want a positive rate)", part)
		}
		grid = append(grid, l)
	}
	return grid, nil
}

func parseRange(s string) (lo, hi, step float64, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("bad sweep range %q (want lo:hi:step)", s)
	}
	var vals [3]float64
	for i, p := range parts {
		v, perr := strconv.ParseFloat(strings.TrimSpace(p), 64)
		// Negated comparisons reject NaN; IsInf rejects +Inf bounds that
		// would otherwise generate points forever.
		if perr != nil || !(v > 0) || math.IsInf(v, 1) {
			return 0, 0, 0, fmt.Errorf("bad sweep range %q (want positive finite lo:hi:step)", s)
		}
		vals[i] = v
	}
	if vals[1] < vals[0] {
		return 0, 0, 0, fmt.Errorf("bad sweep range %q (hi below lo)", s)
	}
	return vals[0], vals[1], vals[2], nil
}

// runSweepGrid runs one point per λ of the grid through the sweep front
// door (locally or on the coordinator fleet — the rows are byte-identical
// either way) and prints rows in grid order.
func runSweepGrid(base core.Config, grid []float64, runPlan func(sweep.Plan) ([]core.PointResult, error), quiet, jsonOut bool, stdout, stderr io.Writer) int {
	plan := sweep.Plan{Name: "swsim", Points: make([]core.Point, len(grid))}
	for i, l := range grid {
		cfg := base
		cfg.Lambda = l
		plan.Points[i] = core.Point{Label: fmt.Sprintf("swsim|l%g", l), Config: cfg}
	}
	exit := exiter(stderr)
	start := time.Now()
	results, err := runPlan(plan)
	if err != nil {
		return exit(1, "%v", err)
	}
	if !quiet && !jsonOut {
		fmt.Fprintf(stdout, "# %s, %s routing, V=%d, M=%d flits, traffic=%s, pattern=%s, faults=%d: %d-point sweep (wall time %v)\n",
			base.Topology, base.AlgorithmName(), base.V, base.MsgLen,
			base.TrafficSpec(), base.PatternSpec(), base.Faults.RandomNodes,
			len(grid), time.Since(start).Round(time.Millisecond))
		fmt.Fprintln(stdout, csvHeader)
	}
	enc := json.NewEncoder(stdout)
	code := 0
	for i, pr := range results {
		if pr.Err != nil {
			code = 1
			fmt.Fprintf(stderr, "swsim: point %s: %v\n", pr.Label, pr.Err)
			continue
		}
		if jsonOut {
			if err := enc.Encode(struct {
				Config  core.Config
				Results metrics.Results
			}{pr.Config, pr.Results}); err != nil {
				return exit(1, "%v", err)
			}
			continue
		}
		fmt.Fprintln(stdout, csvRow(grid[i], pr.Results))
	}
	return code
}

// runFindSat bisects for the saturation λ of the configured point.
func runFindSat(base core.Config, opt sweep.Options, factor float64, quiet, jsonOut bool, stdout, stderr io.Writer) int {
	exit := exiter(stderr)
	sat, err := sweep.FindSaturation("swsim", base, sweep.SaturationOptions{
		Factor: factor,
		Run:    opt,
	})
	if err != nil {
		return exit(1, "%v", err)
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sat); err != nil {
			return exit(1, "%v", err)
		}
		return 0
	}
	if !quiet {
		fmt.Fprintf(stdout, "# %s, %s routing, V=%d, M=%d flits: saturation search (%d probes)\n",
			base.Topology, base.AlgorithmName(), base.V, base.MsgLen, len(sat.Probes))
		for _, pr := range sat.Probes {
			note := ""
			if pr.Results.Saturated {
				note = " (saturated)"
			}
			fmt.Fprintf(stdout, "#   probe λ=%-10.6g latency %.1f%s\n", pr.Config.Lambda, pr.Results.MeanLatency, note)
		}
		fmt.Fprintln(stdout, "saturation_lambda,bracket_lo,bracket_hi,zero_load_latency,threshold")
	}
	fmt.Fprintf(stdout, "%.6g,%.6g,%.6g,%.2f,%.2f\n", sat.Lambda, sat.Lo, sat.Hi, sat.ZeroLoad, sat.Threshold)
	return 0
}

// resolveEngineWorkers turns the -engine-workers spec into a concrete
// Config.Workers value. "auto" resolves to core.AutoWorkers for a
// single-point run; sweep and find-sat modes resolve it to 1, because
// they already saturate the machine by running engines in parallel
// across points, and nested parallelism would just add barrier
// overhead. An explicit integer applies in every mode, must be >= 1,
// and earns a warning (not an error — the engine clamps to one domain
// per router) when it exceeds the router count.
func resolveEngineWorkers(spec string, nodes int, multiPoint bool) (workers int, warn string, err error) {
	if spec == "auto" {
		if multiPoint {
			return 1, "", nil
		}
		return core.AutoWorkers(nodes), "", nil
	}
	w, perr := strconv.Atoi(spec)
	if perr != nil || w < 1 {
		return 0, "", fmt.Errorf("bad -engine-workers %q (want an integer >= 1, or 'auto')", spec)
	}
	if w > nodes {
		warn = fmt.Sprintf("-engine-workers %d exceeds the %d-router topology; the engine will clamp to %d single-router domains", w, nodes, nodes)
	}
	return w, warn, nil
}

func shapeNote(f core.FaultSpec) string {
	if len(f.Shapes) == 0 {
		return ""
	}
	return ", region=" + f.Shapes[0].Spec.Shape.String()
}
