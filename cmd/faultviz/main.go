// Command faultviz renders fault configurations of a 2-D torus plane as
// ASCII art (Fig. 1 of the paper), with coalesced-region summaries. The
// faults are placed by core.BuildFaults: -random N -seed S draws the nodes
// `swsim -faults N -seed S` fails on the same torus, and a shape that would
// disconnect the network is refused as swsim refuses it.
//
//	faultviz -k 16 -shape U -a 4 -b 5
//	faultviz -k 8 -random 5 -seed 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/viz"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("faultviz", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		k      = fl.Int("k", 16, "radix of the 2-D torus")
		shape  = fl.String("shape", "", "shape: bar|doublebar|rect|L|U|T|plus|H")
		a      = fl.Int("a", 4, "shape parameter A")
		b      = fl.Int("b", 4, "shape parameter B")
		th     = fl.Int("t", 0, "plus-shape thickness (0 = 1)")
		ax     = fl.Int("ax", 2, "anchor coordinate in dim 0")
		ay     = fl.Int("ay", 2, "anchor coordinate in dim 1")
		random = fl.Int("random", 0, "random faulty nodes instead of a shape")
		seed   = fl.Uint64("seed", 1, "seed for random placement")
	)
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cfg := core.DefaultConfig(*k, 2, 0)
	cfg.Seed = *seed
	switch {
	case *random > 0:
		cfg.Faults.RandomNodes = *random
	case *shape != "":
		sh, ok := fault.ParseShape(*shape)
		if !ok {
			fmt.Fprintf(stderr, "faultviz: unknown shape %q\n", *shape)
			return 2
		}
		cfg.Faults.Shapes = []core.ShapeStamp{{
			Spec: fault.ShapeSpec{Shape: sh, A: *a, B: *b, T: *th, AnchorA: *ax, AnchorB: *ay},
			DimA: 0, DimB: 1,
		}}
	default:
		fl.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "faultviz: %v\n", err)
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
	fmt.Fprint(stdout, viz.RenderPlane(fs))
	fmt.Fprint(stdout, viz.RenderRegions(fs))
	return 0
}
