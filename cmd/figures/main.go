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
// Long runs checkpoint and shard through the sweep subsystem: with
// -checkpoint, every completed point is journalled and a re-run (after a
// crash, SIGKILL, or preemption) resumes instead of recomputing; with
// -shard i/n, independent processes or hosts each run a slice of the
// same figure; -merge combines shard journals, after which a final run
// renders the complete tables entirely from the checkpoint:
//
//	figures -fig 3 -scale full -shard 0/2 -checkpoint s0.jsonl   # host A
//	figures -fig 3 -scale full -shard 1/2 -checkpoint s1.jsonl   # host B
//	figures -fig 3 -scale full -checkpoint all.jsonl -merge s0.jsonl,s1.jsonl
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sweep"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to regenerate: 1|3|4|5|6|7|ext|sat|churn|all")
		scale      = flag.String("scale", "default", "measurement scale: quick|default|full")
		workers    = flag.Int("workers", 0, "sweep workers (0 = GOMAXPROCS)")
		seeds      = flag.Int("seeds", 3, "random fault placements averaged across figures")
		csv        = flag.Bool("csv", false, "also print raw CSV rows per point")
		plot       = flag.Bool("plot", false, "render ASCII charts under the latency tables")
		checkpoint = flag.String("checkpoint", "", "JSONL checkpoint journal: completed points are skipped on re-run")
		shardSpec  = flag.String("shard", "", "run only shard i of n ('i/n') of each figure's sweep")
		mergeList  = flag.String("merge", "", "comma-separated shard journals to merge into -checkpoint before rendering")
		topo       = flag.String("topo", "torus", "topology family overriding every figure's torus (e.g. mesh); each figure's k/n are rewritten into the spec, other parameters (latmap) kept; fault-region figures need the shapes to fit the network")
		coordURL   = flag.String("coordinator", "", "submit every figure sweep to a coordinator fleet (swsim -serve / -worker) instead of simulating locally")
	)
	flag.Parse()

	sc, ok := scales[*scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "figures: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	shard, err := sweep.ParseShard(*shardSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(2)
	}
	if shard.Count > 1 && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "figures: -shard requires -checkpoint (without a journal the shard's results cannot be merged)")
		os.Exit(2)
	}
	if *mergeList != "" {
		if *checkpoint == "" {
			fmt.Fprintln(os.Stderr, "figures: -merge requires -checkpoint (the journal to merge into)")
			os.Exit(2)
		}
		total, err := sweep.MergeJournals(*checkpoint, strings.Split(*mergeList, ",")...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "figures: merged into %s (%d distinct points)\n", *checkpoint, total)
	}
	if *coordURL != "" && (*checkpoint != "" || shard.Count > 1 || *mergeList != "") {
		fmt.Fprintln(os.Stderr, "figures: -coordinator conflicts with -checkpoint/-shard/-merge (the coordinator owns the journal; its workers are the shards)")
		os.Exit(2)
	}
	h := &harness{scale: sc, workers: *workers, seeds: *seeds, csv: *csv, plot: *plot,
		checkpoint: *checkpoint, shard: shard, topo: *topo, coordinator: *coordURL}

	start := time.Now()
	switch *fig {
	case "1":
		h.fig1()
	case "3":
		h.fig3()
	case "4":
		h.fig4()
	case "5":
		h.fig5()
	case "6":
		h.fig6()
	case "7":
		h.fig7()
	case "ext":
		h.figExt()
	case "sat":
		h.figSat()
	case "churn":
		h.figChurn()
	case "all":
		h.fig1()
		h.fig3()
		h.fig4()
		h.fig5()
		h.fig6()
		h.fig7()
		h.figExt()
		h.figSat()
		h.figChurn()
	default:
		fmt.Fprintf(os.Stderr, "figures: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if h.shard.Count > 1 {
		fmt.Fprintf(os.Stderr, "figures: shard %s complete; until the other shards' journals are merged (-merge), cells they own render as %q and cells averaged from this shard's placements only are marked %q\n",
			h.shard, skippedCell, partialMark)
	}
	fmt.Printf("\n(total wall time %v)\n", time.Since(start).Round(time.Second))
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
	scale      scaleSpec
	workers    int
	seeds      int
	csv        bool
	plot       bool
	checkpoint string
	shard      sweep.Shard
	// topo replaces every figure's k-ary n-cube ("torus", the default)
	// with another registry topology spec (mesh-vs-torus comparisons).
	// Each figure still chooses its own network size: topoFor rewrites
	// the spec's k/n parameters per point, so size-varying figures keep
	// truthful labels.
	topo string
	// coordinator, when set, is the base URL of a sweep coordinator
	// (swsim -serve); every figure sweep is submitted there and served by
	// the worker fleet (and, on repeat runs, by the result cache) instead
	// of simulating locally.
	coordinator string
}

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

// sweepOptions assembles the checkpoint/shard/worker options shared by
// every figure's sweep.
func (h *harness) sweepOptions() sweep.Options {
	return sweep.Options{Workers: h.workers, Checkpoint: h.checkpoint, Shard: h.shard, Log: os.Stderr}
}

// run executes the named figure sweep through the sweep subsystem
// (resumable via -checkpoint, splittable via -shard) and indexes results
// by label. Points owned by other shards carry sweep.ErrSkipped and
// render as skippedCell. With -coordinator the plan goes to the fleet
// instead; point identity is the content digest, so a figure re-render
// against a warm coordinator is pure cache.
func (h *harness) run(name string, points []core.Point) map[string]core.PointResult {
	plan := sweep.Plan{Name: name, Points: points}
	var res []core.PointResult
	var err error
	if h.coordinator != "" {
		c := coord.NewClient(h.coordinator)
		c.Log = os.Stderr
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		res, err = c.RunPlan(ctx, plan)
		stop()
	} else {
		res, err = sweep.Run(plan, h.sweepOptions())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %s: %v\n", name, err)
		os.Exit(1)
	}
	out := make(map[string]core.PointResult, len(res))
	for _, r := range res {
		if r.Err != nil && !errors.Is(r.Err, sweep.ErrSkipped) {
			fmt.Fprintf(os.Stderr, "figures: point %s: %v\n", r.Label, r.Err)
		}
		out[r.Label] = r
		if h.csv && r.Err == nil {
			fmt.Printf("csv,%s,%.2f,%.6f,%d,%d,%v\n", r.Label,
				r.Results.MeanLatency, r.Results.Throughput,
				r.Results.QueuedFault, r.Results.QueuedVia, r.Results.Saturated)
		}
	}
	return out
}

// skippedCell marks a table cell whose points all belong to another
// shard and have not been merged into this run's checkpoint yet;
// partialMark is appended to a cell averaged over only the placements
// this shard owns (a shard splits each cell's seeds, so the value will
// shift once the other shards' journals are merged in).
const (
	skippedCell = "-"
	partialMark = "?"
)

// seedCell averages one metric over a table cell's seeded fault
// placements, rendering the shard states consistently: skippedCell when
// every missing placement belongs to another shard, "err" when any
// owned placement failed and none succeeded, and a partialMark suffix
// when the average covers only this shard's placements. lookup fetches
// the result for seed s; value extracts the metric (ok=false drops that
// placement, e.g. a run that delivered nothing); format renders the
// average.
func (h *harness) seedCell(lookup func(s int) (core.PointResult, bool), value func(metrics.Results) (float64, bool), format string) string {
	sum, n, skipped, failed := 0.0, 0, 0, 0
	for s := 0; s < h.seeds; s++ {
		r, ok := lookup(s)
		switch {
		case ok && r.Err == nil:
			if v, vok := value(r.Results); vok {
				sum += v
				n++
			}
		case ok && errors.Is(r.Err, sweep.ErrSkipped):
			skipped++
		default:
			failed++
		}
	}
	if n == 0 {
		if skipped > 0 && failed == 0 {
			return skippedCell
		}
		return "err"
	}
	cell := fmt.Sprintf(format, sum/float64(n))
	if skipped > 0 {
		cell += partialMark
	}
	return cell
}

// latencyCell formats one latency entry; saturated points are flagged the
// way the paper's curves go vertical.
func latencyCell(r core.PointResult) string {
	if errors.Is(r.Err, sweep.ErrSkipped) {
		return skippedCell
	}
	if r.Err != nil {
		return "err"
	}
	if r.Results.Saturated {
		return fmt.Sprintf("%.0f*", r.Results.MeanLatency)
	}
	return fmt.Sprintf("%.1f", r.Results.MeanLatency)
}

func printTable(title string, colNames []string, rowNames []string, cell func(row, col int) string) {
	width := 14
	for _, c := range colNames {
		if len(c)+2 > width {
			width = len(c) + 2
		}
	}
	fmt.Printf("\n== %s ==\n", title)
	fmt.Printf("%-10s", "lambda")
	for _, c := range colNames {
		fmt.Printf("%*s", width, c)
	}
	fmt.Println()
	for i, rn := range rowNames {
		fmt.Printf("%-10s", rn)
		for j := range colNames {
			fmt.Printf("%*s", width, cell(i, j))
		}
		fmt.Println()
	}
}
