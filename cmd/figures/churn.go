package main

import (
	"fmt"

	"repro/internal/core"
)

// figChurn measures routing under dynamic faults: the same 8-ary 2-cube
// swept across λ while an MTBF/MTTR renewal process fails and heals
// components mid-run (repair time fixed at a tenth of the failure
// interval). The latency table shows the cost of churn; the chaos rows
// below it report how the network absorbed it — transitions applied,
// worms re-injected or lost, mean rerouting convergence time and the
// worst availability window.
func (h *harness) figChurn() {
	levels := []struct{ name, spec string }{
		{"static", ""},
		{"mtbf 50k", "mtbf:mtbf=50000,mttr=5000"},
		{"mtbf 20k", "mtbf:mtbf=20000,mttr=2000"},
		{"mtbf 10k", "mtbf:mtbf=10000,mttr=1000"},
		{"mtbf 5k", "mtbf:mtbf=5000,mttr=500"},
	}
	t := latencyTable("Churn", "Churn: mean latency vs fault churn (adaptive, 8-ary 2-cube, V=4; * = saturated)", h.lambdaGrid(4))
	for _, lv := range levels {
		t.series = append(t.series, series{col: lv.name, seeds: 1,
			point: func(l float64, _ int) core.Point {
				cfg := h.base(8, 2, l)
				cfg.Algorithm = "adaptive"
				cfg.FaultSchedule = lv.spec
				return core.Point{Label: fmt.Sprintf("churn|%s|l%g", lv.name, l), Config: cfg}
			}})
	}
	cells := h.render(t)

	mid := len(t.xs) / 2
	h.printf("\nchaos metrics at λ=%g:\n", t.xs[mid])
	h.printf("level,transitions,reinjected,lost,mean_convergence,min_availability\n")
	for i, lv := range levels[1:] {
		r := cells[i+1][mid].results[0]
		if r.Err != nil {
			h.printf("%s,err\n", lv.name)
			continue
		}
		m := r.Results
		h.printf("%s,%d,%d,%d,%.1f,%.4f\n",
			lv.name, m.Transitions, m.Reinjected, m.Lost, m.MeanConvergence, m.MinAvailability)
	}
}
