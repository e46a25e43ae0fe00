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
// The flags that pick the network, faults and routers are swsim's
// (core.BindFlags), so every mode looks at what swsim simulates, on any
// -topo and with any -shape. -alg narrows the deadlock and livelock walks
// to one algorithm (default: every registered one). -mode model refuses a
// non-torus -topo: analytic.Model is a k-ary n-cube model.
//
// Examples:
//
//	analyze -mode deadlock -k 8 -n 2 -faults 5
//	analyze -mode deadlock -topo mesh:k=4,n=3
//	analyze -mode deadlock -k 8 -n 2 -shape U -alg adaptive
//	analyze -mode model -k 8 -n 2 -v 4 -m 32 -faults 3
//	analyze -mode livelock -topo mesh:k=8,n=2 -faults 8 -seed 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/routing"
	"repro/internal/topology"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		config  = core.BindFlags(fl, core.DefaultConfig(8, 2, 0)) // -topo -k -n -alg -v -m -faults -shape -seed
		mode    = fl.String("mode", "deadlock", "analysis: deadlock|model|livelock")
		measure = fl.Int("measure", 5000, "measured messages per simulated point (model mode)")
		list    = fl.Bool("list", false, "list registered topologies, algorithms, patterns and sources, then exit")
	)
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *list {
		core.PrintRegistries(stdout, "swsim ")
		return 0
	}
	cfg, t, err := config()
	cfg.WarmupMessages = *measure / 10
	cfg.MeasureMessages = *measure
	switch {
	case err != nil:
	case *mode == "deadlock":
		return analyzeDeadlock(stdout, stderr, cfg, t)
	case *mode == "livelock":
		return analyzeLivelock(stdout, stderr, cfg, t)
	case *mode != "model":
		err = fmt.Errorf("unknown mode %q", *mode)
	case t.Kind() != "torus":
		err = fmt.Errorf("-mode model takes a torus (analytic.Model is a k-ary n-cube model), not %s", cfg.Topology)
	default:
		// Checked once, before the header: a usage error, not seven err cells.
		cfg.Lambda = modelLambdas[0]
		if err = cfg.Validate(); err != nil {
			break
		}
		if err = analyzeModel(stdout, cfg, t); err == nil {
			return 0
		}
		fmt.Fprintf(stderr, "analyze: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "analyze: %v\n", err)
	return 2
}

// eachAlgorithm places cfg's faults on t, prints the row report returns for
// every registered algorithm -alg selects (all of them when empty), built
// with at least cfg.V virtual channels, and then the footer; a false
// return stops with exit status 1.
func eachAlgorithm(stdout, stderr io.Writer, cfg core.Config, t topology.Network, footer string, report func(name string, alg routing.Router) (string, bool)) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "analyze: %v\n", err)
		return 1
	}
	algs := routing.Algorithms()
	if info, ok := routing.Lookup(cfg.Algorithm); ok {
		algs = []routing.Info{info}
	} else if cfg.Algorithm != "" {
		return fail(fmt.Errorf("unknown routing algorithm %q (registered: %v)", cfg.Algorithm, routing.Names()))
	}
	fs, err := core.BuildFaults(t, cfg.Faults, cfg.Seed)
	if err != nil {
		return fail(err)
	}
	if fs.NumNodeFaults() > 0 {
		fmt.Fprintf(stdout, "faulty nodes: %v\n", fs.FaultyNodes())
	}
	for _, info := range algs {
		alg, err := routing.New(info.Name, t, fs, max(cfg.V, info.MinVFor(t)))
		if err != nil {
			return fail(err)
		}
		row, ok := report(info.Name, alg)
		fmt.Fprintf(stdout, "%-18s %s\n", info.Name+":", row)
		if !ok {
			return 1
		}
	}
	fmt.Fprintln(stdout, footer)
	return 0
}

func analyzeDeadlock(stdout, stderr io.Writer, cfg core.Config, t topology.Network) int {
	return eachAlgorithm(stdout, stderr, cfg, t,
		"no cycle where §4 claims none (det, valiant, every fault-free relation); the others are known, see internal/deadlock/testdata/cdg.golden",
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
			if deadlock.MustBeAcyclic(name, cfg.Faults.Empty()) {
				return row + "\nCYCLE FOUND (deadlock possible) in a relation §4 claims acyclic", false
			}
			return row, true
		})
}

func analyzeLivelock(stdout, stderr io.Writer, cfg core.Config, t topology.Network) int {
	return eachAlgorithm(stdout, stderr, cfg, t,
		"all pairs delivered with bounded software stops (livelock-free, §4)",
		func(_ string, alg routing.Router) (string, bool) {
			rep := routing.AnalyzeLivelock(alg)
			if rep.Undelivered > 0 {
				return rep.String() + "\nLIVELOCK/DISCONNECTION SUSPECTED: some pairs undelivered", false
			}
			return rep.String(), true
		})
}

// modelLambdas is -mode model's traffic sweep.
var modelLambdas = []float64{0.001, 0.002, 0.004, 0.006, 0.008, 0.010, 0.012}

// analyzeModel models the node faults the simulator places: the random
// ones and every -shape region's.
func analyzeModel(stdout io.Writer, cfg core.Config, t topology.Network) error {
	fs, err := core.BuildFaults(t, cfg.Faults, cfg.Seed)
	if err != nil {
		return err
	}
	mdl := analytic.Model{K: t.K(), N: t.N(), V: cfg.V, M: cfg.MsgLen, Nf: fs.NumNodeFaults()}
	fmt.Fprintf(stdout, "analytical model vs flit-level simulation, %d-ary %d-cube, V=%d, M=%d, nf=%d\n", mdl.K, mdl.N, mdl.V, mdl.M, mdl.Nf)
	fmt.Fprintf(stdout, "%-10s%14s%14s%12s\n", "lambda", "model", "simulation", "rel.err")
	fmt.Fprintf(stdout, "model saturation estimate: λ ≈ %.4f\n", mdl.SaturationRate())
	for _, lambda := range modelLambdas {
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
	return nil
}
