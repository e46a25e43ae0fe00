// Model_vs_sim: the paper's conclusion promises "an analytical modeling
// approach to investigate the performance behavior of Software-Based
// fault-tolerant routing". This example runs that model (internal/analytic)
// side by side with the flit-level simulator and charts both.
//
//	go run ./examples/model_vs_sim
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/viz"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	const (
		k, n = 8, 2
		v    = 4
		m    = 32
		nf   = 3
	)
	lambdas := []float64{0.001, 0.002, 0.004, 0.006, 0.008, 0.010}
	model := make([]float64, len(lambdas))
	sim := make([]float64, len(lambdas))

	fmt.Fprintf(stdout, "8-ary 2-cube, V=%d, M=%d flits, nf=%d random faults\n\n", v, m, nf)
	fmt.Fprintf(stdout, "%-10s%12s%12s\n", "lambda", "model", "simulator")
	for i, l := range lambdas {
		mdl := analytic.Model{K: k, N: n, V: v, M: m, Lambda: l, Nf: nf}
		if lat, err := mdl.MeanLatency(); err == nil {
			model[i] = lat
		} else {
			model[i] = math.Inf(1)
		}

		cfg := core.DefaultConfig(k, n, l)
		cfg.V = v
		cfg.MsgLen = m
		cfg.Algorithm = "det" // the analytic model covers deterministic SW-Based routing
		cfg.Faults.RandomNodes = nf
		cfg.WarmupMessages = 300
		cfg.MeasureMessages = 4000
		res, err := core.Run(cfg)
		if err != nil {
			return err
		}
		if res.Saturated {
			sim[i] = math.Inf(1)
		} else {
			sim[i] = res.MeanLatency
		}
		fmt.Fprintf(stdout, "%-10g%12s%12s\n", l, cell(model[i]), cell(sim[i]))
	}

	ch := viz.NewChart(lambdas, 7, 14)
	ch.Add("model", model)
	ch.Add("sim", sim)
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, ch.Render())
	fmt.Fprintln(stdout, "\nThe model tracks the simulator until the knee; analytical models of this")
	fmt.Fprintln(stdout, "family are used to place the saturation point, not to match exact cycles.")
	return nil
}

func cell(v float64) string {
	if math.IsInf(v, 1) {
		return "sat"
	}
	return fmt.Sprintf("%.1f", v)
}
