// Command faultviz renders fault configurations of a 2-D torus plane as
// ASCII art (Fig. 1 of the paper), with coalesced-region summaries.
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

	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/topology"
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

	t := topology.New(*k, 2)
	fs := fault.NewSet(t)
	switch {
	case *random > 0:
		var err error
		fs, err = fault.Random(t, *random, rng.New(*seed), fault.DefaultRandomOptions())
		if err != nil {
			fmt.Fprintf(stderr, "faultviz: %v\n", err)
			return 1
		}
	case *shape != "":
		sh, ok := shapeByName(*shape)
		if !ok {
			fmt.Fprintf(stderr, "faultviz: unknown shape %q\n", *shape)
			return 2
		}
		spec := fault.ShapeSpec{Shape: sh, A: *a, B: *b, T: *th, AnchorA: *ax, AnchorB: *ay}
		if _, err := fault.StampShape(fs, 0, 0, 1, spec); err != nil {
			fmt.Fprintf(stderr, "faultviz: %v\n", err)
			return 1
		}
	default:
		fl.Usage()
		return 2
	}

	fmt.Fprint(stdout, viz.RenderPlane(fs, 0, 0, 1))
	fmt.Fprint(stdout, viz.RenderRegions(fs))
	if fs.Disconnects() {
		fmt.Fprintln(stdout, "WARNING: this configuration disconnects the network")
	}
	return 0
}

func shapeByName(name string) (fault.Shape, bool) {
	m := map[string]fault.Shape{
		"bar": fault.ShapeBar, "doublebar": fault.ShapeDoubleBar,
		"rect": fault.ShapeRect, "L": fault.ShapeL, "U": fault.ShapeU,
		"T": fault.ShapeT, "plus": fault.ShapePlus, "H": fault.ShapeH,
	}
	s, ok := m[name]
	return s, ok
}
