// Command figures regenerates every figure of the paper's evaluation
// section (Figs. 1, 3, 4, 5, 6, 7) from the simulator, printing the same
// rows/series the paper plots, plus extended experiments and a
// saturation-point capacity table. See FIGURES.md for the full
// figure-by-figure reproduction guide.
//
//	figures -fig 3              # mean latency vs traffic, 8-ary 2-cube
//	figures -fig 6 -seeds 5     # throughput vs faults, averaged placements
//	figures -fig all -scale quick
//
// Scales: quick (2k measured messages/point), default (10k), full (90k —
// the paper's 100,000-message protocol).
//
// Long runs checkpoint through the sweep subsystem: with -checkpoint,
// every completed point is journalled and a re-run (after a crash,
// SIGKILL, or preemption) resumes instead of recomputing. With
// -coordinator, the grid sweeps run on a coordinator fleet (swsim -serve
// and -worker on any number of hosts) and a re-render is pure cache:
//
//	figures -fig 3 -scale full -checkpoint fig3.jsonl
//	figures -fig 3 -scale full -coordinator http://host:8080
//
// Every figure table is a declaration (a table value: plan name, title,
// x-axis and one series per column); harness.render is the one path that
// turns a declaration into points, runs them through the sweep front door
// (internal/sweepcli), averages each cell over its fault placements and
// prints it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sweep"
	"repro/internal/sweepcli"
)

// figures is the -fig table, in the order -fig all draws it.
var figures = []struct {
	name string
	draw func(*harness)
}{
	{"1", (*harness).fig1},
	{"3", (*harness).fig3},
	{"4", (*harness).fig4},
	{"5", (*harness).fig5},
	{"6", (*harness).fig6},
	{"7", (*harness).fig7},
	{"ext", (*harness).figExt},
	{"sat", (*harness).figSat},
	{"churn", (*harness).figChurn},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig   = fs.String("fig", "all", "figure to regenerate: 1|3|4|5|6|7|ext|sat|churn|all")
		scale = fs.String("scale", "default", "measurement scale: quick|default|full")
		seeds = fs.Int("seeds", 3, "random fault placements averaged across figures")
		csv   = fs.Bool("csv", false, "also print raw CSV rows per point")
		plot  = fs.Bool("plot", false, "render ASCII charts under the latency tables")
		topo  = fs.String("topo", "torus", "topology family overriding every figure's torus (e.g. mesh); each figure's k/n are rewritten into the spec, other parameters (latmap) kept; fault-region figures need the shapes to fit the network")
	)
	sweepFlags := sweepcli.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "figures: "+format+"\n", a...)
		return 2
	}

	sc, ok := scales[*scale]
	if !ok {
		return usage("unknown scale %q", *scale)
	}
	if *seeds < 1 {
		return usage("bad -seeds %d (want at least one fault placement)", *seeds)
	}
	var draw []func(*harness)
	for _, f := range figures {
		if *fig == "all" || *fig == f.name {
			draw = append(draw, f.draw)
		}
	}
	if draw == nil {
		return usage("unknown figure %q", *fig)
	}
	mode := sweepcli.Grid
	if *fig == "sat" {
		mode = sweepcli.Search
	}
	door, runPlan, err := sweepFlags.Validate(mode, stderr)
	if err != nil {
		return usage("%v", err)
	}
	if door.Fleet && *fig == "all" {
		fmt.Fprintln(stderr, "figures: the -fig sat saturation searches run in-process, not on the -coordinator fleet (their probes are sequential)")
	}
	h := &harness{scale: sc, seeds: *seeds, csv: *csv, plot: *plot, topo: *topo,
		local: door.Local, runPlan: runPlan, stdout: stdout, stderr: stderr}

	start := time.Now()
	for _, f := range draw {
		f(h)
	}
	h.printf("\n(total wall time %v)\n", time.Since(start).Round(time.Second))
	return 0
}

// scaleSpec sets the measurement protocol; the paper's is warmup=10000,
// measure=90000 ("a total of 100,000 messages ... first 10,000 inhibited").
type scaleSpec struct {
	warmup, measure int
	thin            int // keep every thin-th lambda point (1 = all)
}

var scales = map[string]scaleSpec{
	"quick":   {warmup: 200, measure: 2000, thin: 2},
	"default": {warmup: 1000, measure: 10000, thin: 1},
	"full":    {warmup: 10000, measure: 90000, thin: 1},
}

type harness struct {
	scale scaleSpec
	seeds int
	csv   bool
	plot  bool
	// topo replaces every figure's k-ary n-cube ("torus", the default)
	// with another registry topology spec (mesh-vs-torus comparisons).
	// Each figure still chooses its own network size: topoFor rewrites
	// the spec's k/n parameters per point, so size-varying figures keep
	// truthful labels.
	topo string
	// runPlan is the sweep front door every table's plan goes through
	// (resumable via -checkpoint, fleet-served via -coordinator); local
	// holds the in-process options the saturation searches of figSat take
	// instead.
	runPlan func(sweep.Plan) ([]core.PointResult, error)
	local   sweep.Options

	stdout, stderr io.Writer
}

func (h *harness) printf(format string, a ...any) { fmt.Fprintf(h.stdout, format, a...) }

// topoFor resolves the -topo spec for a figure point of the given size:
// its k and n parameters are replaced by the figure's values (other
// parameters, e.g. a latmap, are preserved). Specs whose factory rejects a
// k parameter (hypercube) surface that as a per-point error rather than
// silently simulating a mislabeled size.
func (h *harness) topoFor(k, n int) string {
	spec, err := registry.Parse(h.topo)
	if err != nil {
		return h.topo // let core.Validate report the parse error
	}
	params := []registry.Param{
		{Key: "k", Value: strconv.Itoa(k)},
		{Key: "n", Value: strconv.Itoa(n)},
	}
	for _, p := range spec.Params {
		if p.Key != "k" && p.Key != "n" {
			params = append(params, p)
		}
	}
	spec.Params = params
	return spec.String()
}

// lambdaGrid returns the traffic-rate axis used for a V value, mirroring
// the x-axis ranges of the paper's panels (V=4 to 0.014, V=6 to ~0.016-0.02,
// V=10 to ~0.02).
func (h *harness) lambdaGrid(v int) []float64 {
	var grid []float64
	switch {
	case v <= 4:
		grid = []float64{0.002, 0.004, 0.006, 0.008, 0.010, 0.012, 0.014}
	case v <= 6:
		grid = []float64{0.002, 0.004, 0.006, 0.008, 0.010, 0.012, 0.014, 0.016}
	default:
		grid = []float64{0.002, 0.004, 0.008, 0.012, 0.014, 0.016, 0.018, 0.020}
	}
	if h.scale.thin <= 1 {
		return grid
	}
	var out []float64
	for i, l := range grid {
		if i%h.scale.thin == 0 || i == len(grid)-1 {
			out = append(out, l)
		}
	}
	return out
}

func (h *harness) base(k, n int, lambda float64) core.Config {
	c := core.DefaultConfig(k, n, lambda)
	c.Topology = h.topoFor(k, n)
	c.WarmupMessages = h.scale.warmup
	c.MeasureMessages = h.scale.measure
	return c
}

// table declares one figure table. Its plan is generated series by
// series, x by x, seed by seed — the order (with each point's label and
// config) is the identity existing journals and coordinator caches are
// keyed by, so a declaration's series order is not cosmetic.
type table struct {
	plan, title string
	// xhead names the x-axis column, xw is its width; colw is the data
	// column width, 0 meaning 14 widened to fit the longest header.
	xhead    string
	xw, colw int
	xs       []float64
	series   []series
	// cols lists the series in display order where that differs from
	// plan order (nil = plan order).
	cols   []int
	metric metric
}

// series is one table column: its header, how many seeded fault
// placements each cell averages (1 where placement is irrelevant), and
// the sweep point behind (x, seed).
type series struct {
	col   string
	seeds int
	point func(x float64, seed int) core.Point
}

// metric is the quantity a table plots. value extracts it from one run
// (ok=false drops that placement from the average, e.g. a run that
// delivered nothing); format renders the cell average; satFormat, when
// set, renders cells where at least half the placements saturated — the
// way the paper's latency curves go vertical.
type metric struct {
	value             func(metrics.Results) (v float64, ok bool)
	format, satFormat string
}

var latency = metric{
	value:  func(m metrics.Results) (float64, bool) { return m.MeanLatency, true },
	format: "%.1f", satFormat: "%.0f*",
}

// latencyTable starts the declaration of a mean-latency-vs-λ table, the
// shape of every table but Figs. 6 and 7.
func latencyTable(plan, title string, grid []float64) table {
	return table{plan: plan, title: title, xhead: "lambda", xw: 10, xs: grid, metric: latency}
}

// cell is one table entry: a metric averaged over the cell's seeded
// fault placements ("to make the results independent of relative
// positions of failures", §5.2).
type cell struct {
	results   []core.PointResult // one per placement, in seed order
	mean      float64            // over the placements that ran; NaN if none did
	saturated bool               // at least half of those saturated
}

func aggregate(results []core.PointResult, m metric) cell {
	c := cell{results: results}
	sum, n, sat := 0.0, 0, 0
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		if v, ok := m.value(r.Results); ok {
			sum += v
			n++
			if r.Results.Saturated {
				sat++
			}
		}
	}
	c.mean = math.NaN()
	if n > 0 {
		c.mean, c.saturated = sum/float64(n), 2*sat >= n
	}
	return c
}

// text renders the cell: "err" when no placement produced a value.
func (c cell) text(m metric) string {
	if math.IsNaN(c.mean) {
		return "err"
	}
	format := m.format
	if c.saturated && m.satFormat != "" {
		format = m.satFormat
	}
	return fmt.Sprintf(format, c.mean)
}

// render is the one path from a table declaration to its printed form:
// generate the plan, run it through the sweep front door, report failed
// points (and -csv rows), cut the results into cells and print them. The
// cells come back as [series][x] for callers that draw more from them.
func (h *harness) render(t table) [][]cell {
	plan := sweep.Plan{Name: t.plan}
	for _, s := range t.series {
		for _, x := range t.xs {
			for seed := 0; seed < s.seeds; seed++ {
				plan.Points = append(plan.Points, s.point(x, seed))
			}
		}
	}
	res, err := h.runPlan(plan)
	if err != nil {
		fmt.Fprintf(h.stderr, "figures: %s: %v\n", t.plan, err)
		os.Exit(1)
	}
	for _, r := range res {
		if r.Err != nil {
			fmt.Fprintf(h.stderr, "figures: point %s: %v\n", r.Label, r.Err)
		}
		if h.csv && r.Err == nil {
			h.printf("csv,%s,%.2f,%.6f,%d,%d,%v\n", r.Label,
				r.Results.MeanLatency, r.Results.Throughput,
				r.Results.QueuedFault, r.Results.QueuedVia, r.Results.Saturated)
		}
	}
	cells := make([][]cell, len(t.series))
	for si, s := range t.series {
		cells[si] = make([]cell, len(t.xs))
		for xi := range t.xs {
			cells[si][xi] = aggregate(res[:s.seeds], t.metric)
			res = res[s.seeds:]
		}
	}

	cols := t.cols
	if cols == nil {
		for si := range t.series {
			cols = append(cols, si)
		}
	}
	width := t.colw
	if width == 0 {
		width = 14
		for _, s := range t.series {
			width = max(width, len(s.col)+2)
		}
	}
	h.printf("\n== %s ==\n%-*s", t.title, t.xw, t.xhead)
	for _, si := range cols {
		h.printf("%*s", width, t.series[si].col)
	}
	h.printf("\n")
	for xi, x := range t.xs {
		h.printf("%-*g", t.xw, x)
		for _, si := range cols {
			h.printf("%*s", width, cells[si][xi].text(t.metric))
		}
		h.printf("\n")
	}
	return cells
}
