// Command analyze runs the two analysis tools of the library:
//
//   - `-mode deadlock` builds the channel dependency graph of every
//     registered algorithm's routing relation (the paper's §4 argument)
//     from its Route decisions under a fault configuration and reports
//     vertices, edges and acyclicity, with a witness for each cycle;
//
//   - `-mode model` compares the analytical latency model (the paper's
//     stated future work, implemented in internal/analytic) against the
//     flit-level simulator across a traffic sweep;
//
//   - `-mode livelock` exhaustively walks every healthy (src, dst) pair
//     under a fault configuration, for every algorithm in the routing
//     registry, and reports the worst-case number of software stops — the
//     empirical content of §4's livelock-freedom claim.
//
// Examples:
//
//	analyze -mode deadlock -k 8 -n 2 -faults 5
//	analyze -mode model -k 8 -n 2 -v 4 -m 32 -faults 3
//	analyze -mode livelock -k 8 -n 2 -faults 8 -seed 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/routing"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		mode    = fl.String("mode", "deadlock", "analysis: deadlock|model|livelock")
		k       = fl.Int("k", 8, "radix")
		n       = fl.Int("n", 2, "dimensions")
		v       = fl.Int("v", 4, "virtual channels")
		m       = fl.Int("m", 32, "message length (flits)")
		faults  = fl.Int("faults", 0, "random faulty nodes")
		seed    = fl.Uint64("seed", 1, "seed")
		measure = fl.Int("measure", 5000, "measured messages per simulated point (model mode)")
	)
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// One description of the experiment for all three modes: the network,
	// the fault placement and the routers are the ones swsim builds from
	// the same -k/-n, -faults, -seed and -v.
	cfg := core.DefaultConfig(*k, *n, 0)
	cfg.V = *v
	cfg.MsgLen = *m
	cfg.Faults.RandomNodes = *faults
	cfg.Seed = *seed
	cfg.WarmupMessages = *measure / 10
	cfg.MeasureMessages = *measure

	switch *mode {
	case "deadlock":
		return analyzeDeadlock(stdout, stderr, cfg)
	case "model":
		analyzeModel(stdout, cfg, *k, *n)
		return 0
	case "livelock":
		return analyzeLivelock(stdout, stderr, cfg)
	}
	fmt.Fprintf(stderr, "analyze: unknown mode %q\n", *mode)
	return 2
}

// eachAlgorithm builds cfg's network and faults, prints the row report
// returns for every registered algorithm that supports the network (built
// with at least cfg.V virtual channels), and then the footer; a false
// return stops with exit status 1.
func eachAlgorithm(stdout, stderr io.Writer, cfg core.Config, footer string, report func(name string, alg routing.Router) (string, bool)) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "analyze: %v\n", err)
		return 1
	}
	t, err := cfg.BuildTopology()
	if err != nil {
		return fail(err)
	}
	fs, err := core.BuildFaults(t, cfg.Faults, cfg.Seed)
	if err != nil {
		return fail(err)
	}
	if fs.NumNodeFaults() > 0 {
		fmt.Fprintf(stdout, "faulty nodes: %v\n", fs.FaultyNodes())
	}
	for _, info := range routing.Algorithms() {
		row, ok := fmt.Sprintf("(skipped: %s-only)", strings.Join(info.Topologies, "/")), true
		if info.Supports(t.Kind()) {
			alg, err := routing.New(info.Name, t, fs, max(cfg.V, info.MinV))
			if err != nil {
				return fail(err)
			}
			row, ok = report(info.Name, alg)
		}
		fmt.Fprintf(stdout, "%-18s %s\n", info.Name+":", row)
		if !ok {
			return 1
		}
	}
	fmt.Fprintln(stdout, footer)
	return 0
}

func analyzeDeadlock(stdout, stderr io.Writer, cfg core.Config) int {
	return eachAlgorithm(stdout, stderr, cfg,
		"no cycle where §4 claims none (det, valiant, every fault-free relation); the others are known, see ROADMAP item 1",
		func(name string, alg routing.Router) (string, bool) {
			g, err := deadlock.Build(alg)
			if err != nil {
				return err.Error(), false
			}
			vtx, edges := g.Size()
			cyc := g.Cycle()
			if cyc == nil {
				return fmt.Sprintf("%d vertices, %d edges, acyclic", vtx, edges), true
			}
			row := fmt.Sprintf("%d vertices, %d edges, cycle of %d: %v", vtx, edges, len(cyc)-1, cyc)
			// What deadlock.TestRouteCDG asserts; any other cycle is one of
			// its pinned findings.
			if cfg.Faults.Empty() || name == "det" || name == "valiant" {
				return row + "\nCYCLE FOUND (deadlock possible) in a relation §4 claims acyclic", false
			}
			return row, true
		})
}

func analyzeLivelock(stdout, stderr io.Writer, cfg core.Config) int {
	return eachAlgorithm(stdout, stderr, cfg,
		"all pairs delivered with bounded software stops (livelock-free, §4)",
		func(_ string, alg routing.Router) (string, bool) {
			rep := routing.AnalyzeLivelock(alg, cfg.MsgLen, 0)
			if rep.Undelivered > 0 {
				return rep.String() + "\nLIVELOCK/DISCONNECTION SUSPECTED: some pairs undelivered", false
			}
			return rep.String(), true
		})
}

func analyzeModel(stdout io.Writer, cfg core.Config, k, n int) {
	mdl := analytic.Model{K: k, N: n, V: cfg.V, M: cfg.MsgLen, Nf: cfg.Faults.RandomNodes}
	fmt.Fprintf(stdout, "analytical model vs flit-level simulation, %d-ary %d-cube, V=%d, M=%d, nf=%d\n", mdl.K, mdl.N, mdl.V, mdl.M, mdl.Nf)
	fmt.Fprintf(stdout, "%-10s%14s%14s%12s\n", "lambda", "model", "simulation", "rel.err")
	fmt.Fprintf(stdout, "model saturation estimate: λ ≈ %.4f\n", mdl.SaturationRate())
	for _, lambda := range []float64{0.001, 0.002, 0.004, 0.006, 0.008, 0.010, 0.012} {
		mdl.Lambda = lambda
		modelLat, err := mdl.MeanLatency()
		modelCell := "sat"
		if err == nil {
			modelCell = fmt.Sprintf("%.1f", modelLat)
		}
		cfg.Lambda = lambda
		res, rerr := core.Run(cfg)
		simCell := "err"
		if rerr == nil {
			if res.Saturated {
				simCell = fmt.Sprintf("%.0f*", res.MeanLatency)
			} else {
				simCell = fmt.Sprintf("%.1f", res.MeanLatency)
			}
		}
		rel := ""
		if err == nil && rerr == nil && !res.Saturated && res.MeanLatency > 0 {
			rel = fmt.Sprintf("%+.0f%%", (modelLat-res.MeanLatency)/res.MeanLatency*100)
		}
		fmt.Fprintf(stdout, "%-10g%14s%14s%12s\n", lambda, modelCell, simCell, rel)
	}
}
