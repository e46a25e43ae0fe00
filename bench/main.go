// Command bench is the repository's reference benchmark: six workloads,
// five end-to-end metrics and a row per layer, all measured from outside
// the simulator through its exported API. See README.md.
//
// It runs with bench/ as its working directory (bench/run.sh and
// `go run -C bench .` both arrange that).
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run, result JSON on the last line
//	bench [-reps R] [-seconds S]                      every workload, R runs each, plus a traced run
//	bench -aa                                         two such sets, compared against the bounds
//	bench -list                                       workload and metric names
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// minIterations is the fewest iterations a run takes, however short
// -seconds is.
const minIterations = 3

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result JSON (default: the whole suite)")
		seed         = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Int("seconds", 15, "how long one run measures")
		trace        = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		reps         = flag.Int("reps", 5, "suite: runs per workload, each a fresh child process, interleaved across workloads")
		aa           = flag.Bool("aa", false, "suite: run two sets back to back and compare their medians against the bounds")
		list         = flag.Bool("list", false, "print every workload and metric name and exit")
		update       = flag.Bool("update-golden", false, "record the seed-1 digests in golden.json instead of checking them")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *reps < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *list:
		printList()
	case *workloadName != "":
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *workloadName)
			os.Exit(2)
		}
		os.Exit(runOne(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *update))
	default:
		os.Exit(runSuite(suiteOptions{seed: *seed, seconds: *seconds, reps: *reps, aa: *aa, update: *update}))
	}
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-14s %s\n", w.name, w.why)
	}
	fmt.Println("end-to-end metrics (untraced runs, every workload):")
	for _, d := range endToEnd {
		fmt.Printf("  %-36s %-16s %s is better, bound %.0f%%\n", d.Name, d.Unit, d.Better, d.Bound*100)
	}
	fmt.Println("per-layer metrics (traced run):")
	for _, d := range perLayer {
		fmt.Printf("  %-36s %-16s %s is better\n", d.Name, d.Unit, d.Better)
	}
}

// result is the last line a single-workload run prints: the contract the
// PR driver (and this program's own suite mode) parses.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is a single-workload run in this process; it returns the exit code.
func runOne(w workload, seed uint64, d time.Duration, traced, update bool) int {
	dir := filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	var res result
	var err error
	if traced {
		res, err = runTraced(w, seed, dir, d)
	} else {
		res, err = runUntraced(w, seed, dir, d, update)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runUntraced repeats the workload's fixed work for d (minIterations at
// least) and reports the end-to-end metrics of the fastest iteration.
// Every iteration does the same deterministic work, so host noise can only
// add time; and on a shared host it arrives in episodes longer than a run,
// which move a run's median by two to three times as much as its fastest
// iteration (README.md has the measurement). The median and quartiles over
// iterations are printed beside it. Every iteration's digest must equal
// the first one's, and for seed 1 the recorded golden one.
func runUntraced(w workload, seed uint64, dir string, d time.Duration, update bool) (result, error) {
	var res result
	var setups, walls []float64
	var first workDigest
	var problems []string
	n, cycles := len(w.points(seed)), int64(0)
	start := time.Now()
	for i := 0; i < minIterations || time.Since(start) < d; i++ {
		s := w.iterate(seed, dir)
		res.Attempted += n
		if s.err != nil {
			res.Failed += s.failed
			problems = append(problems, s.err.Error())
			continue
		}
		dg, err := digestResults(s.results)
		if err != nil {
			return res, err
		}
		if len(walls) == 0 {
			first, cycles = dg, s.cycles
		} else if diff := dg.difference(first); diff != "" {
			res.Failed += n
			problems = append(problems, fmt.Sprintf("iteration %d is not deterministic: %s", i, diff))
			continue
		}
		setups, walls = append(setups, s.setupS), append(walls, s.wallS)
	}
	if len(walls) == 0 {
		return res, fmt.Errorf("no iteration succeeded: %v", problems)
	}
	switch {
	case update && seed == 1:
		if err := updateGolden(w.name, first); err != nil {
			return res, err
		}
	case seed == 1:
		if err := checkGolden(w.name, first); err != nil {
			res.Failed = res.Attempted
			problems = append(problems, err.Error())
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return res, err
	}
	setupS, wallS := fastest(setups), fastest(walls)
	values := map[string]float64{
		"setup_s":          setupS,
		"wall_s":           wallS,
		"sim_cycles_per_s": float64(cycles) / wallS,
		"points_per_s":     float64(n) / (setupS + wallS),
		"peak_rss_mb":      rss,
	}
	res.Metrics = map[string]metricValue{}
	for _, def := range endToEnd {
		res.Metrics[def.Name] = metricValue{values[def.Name], def.Unit}
	}
	res.Correct = res.Failed == 0
	q1, q3 := quartiles(walls)
	fmt.Printf("%s seed=%d iterations=%d digest=%.12s wall_s fastest=%.4f median=%.4f q1=%.4f q3=%.4f setup_s fastest=%.6f median=%.6f\n",
		w.name, seed, len(walls), first.Digest, wallS, median(walls), q1, q3, setupS, median(setups))
	for _, p := range problems {
		fmt.Println("FAILED:", p)
	}
	return res, nil
}

// runTraced reports the per-layer metrics of one traced run. Half of d
// goes to the alternating untraced and traced iterations and a hundredth
// to each kernel; the comparison runs take the rest.
func runTraced(w workload, seed uint64, dir string, d time.Duration) (result, error) {
	tr, err := tracedRun(w, seed, dir, d/2, d/100)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: tr.points, Metrics: map[string]metricValue{}}
	if len(tr.problems) > 0 {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0
	fmt.Printf("%s seed=%d traced wall_s=%.4f untraced wall_s=%.4f trace=%s\n",
		w.name, seed, tr.tracedWallS, tr.refWallS, tr.tracePath)
	for _, def := range perLayer {
		v := tr.metrics[def.Name]
		res.Metrics[def.Name] = metricValue{v, def.Unit}
		share := ""
		if def.Unit == "s" {
			// A serial layer's saving is capped by its share of wall_s.
			share = fmt.Sprintf("  (%.1f%% of traced wall_s)", v/tr.tracedWallS*100)
		}
		fmt.Printf("  %-36s %14.6g %s%s\n", def.Name, v, def.Unit, share)
	}
	for _, p := range tr.problems {
		fmt.Println("FAILED:", p)
	}
	return res, nil
}
