package main

import (
	"fmt"

	"repro/internal/sweep"
)

// figSat is the capacity table the paper implies but never tabulates:
// the saturation rate λ* of the 8-ary 2-cube for each routing algorithm
// and VC count, found by the sweep subsystem's bisection auto-search
// instead of reading it off a fixed λ grid. λ* is the λ where mean
// latency first crosses 3× the zero-load latency (or the engine's
// saturation guard trips) — the load where the paper's latency curves
// go vertical, and the basis for capacity experiments like Fig. 6,
// whose offered load must sit past λ*.
func (h *harness) figSat() {
	h.printf("\n===== Saturation points: λ* by algorithm and V, 8-ary 2-cube, M=32 (auto-search) =====\n")
	h.printf("\n%-10s%-6s%14s%14s%14s%10s\n", "alg", "V", "sat λ*", "zero-load", "threshold", "probes")
	for _, algName := range []string{"det", "adaptive"} {
		for _, v := range []int{4, 6, 10} {
			// The six searches run one after another in this process: a
			// search's probes are sequential (each depends on the last).
			// With -checkpoint, a re-run replays every finished probe.
			base := h.base(8, 2, 0.001) // λ is owned by the search
			base.V = v
			base.MsgLen = 32
			base.Algorithm = algName
			base.Seed = 1001
			sat, err := sweep.FindSaturation(
				fmt.Sprintf("sat|%s|v%d", algName, v), base,
				sweep.SaturationOptions{Run: h.local})
			if err != nil {
				fmt.Fprintf(h.stderr, "figures: saturation %s V=%d: %v\n", algName, v, err)
				h.printf("%-10s%-6d%14s%14s%14s%10s\n", algName, v, "err", "", "", "")
				continue
			}
			h.printf("%-10s%-6d%14.5f%14.1f%14.1f%10d\n",
				algName, v, sat.Lambda, sat.ZeroLoad, sat.Threshold, len(sat.Probes))
		}
	}
	h.printf("\n(λ* = load where mean latency crosses 3x zero-load latency; bisection to 5%% brackets,\n")
	h.printf(" Fig. 6's offered load λ=0.012 sits above the V=6 16-ary saturation point by design.)\n")
}
