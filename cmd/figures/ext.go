package main

import (
	"fmt"

	"repro/internal/core"
)

// figExt runs the extended experiments the paper alludes to but does not
// plot ("numerous experiments have been performed for different sizes of
// the network and message length", §5.2): larger radix, higher
// dimensionality, and non-uniform traffic patterns under faults — the
// latter across every interesting registry algorithm, which is where the
// Valiant two-phase baseline earns its keep.
func (h *harness) figExt() {
	h.printf("\n===== Extended experiments (sizes and patterns beyond the plotted figures) =====\n")
	h.extSizes()
	h.extPatterns()
	h.extSources()
}

func (h *harness) extSizes() {
	t := latencyTable("Ext A sizes", "Ext A: latency across network sizes (mean cycles; * = saturated)",
		[]float64{0.002, 0.004, 0.006, 0.008})
	for _, net := range []struct{ k, n, nf, v int }{
		{16, 2, 0, 6}, {16, 2, 8, 6}, // larger radix
		{4, 4, 0, 6}, {4, 4, 12, 6}, // higher dimensionality
	} {
		for _, alg := range []string{"det", "adaptive"} {
			t.series = append(t.series, series{
				col: fmt.Sprintf("%d-ary %d, nf%d %s", net.k, net.n, net.nf, algTag[alg]), seeds: 1,
				point: func(l float64, _ int) core.Point {
					cfg := h.base(net.k, net.n, l)
					cfg.V = net.v
					cfg.Algorithm = alg
					cfg.Faults.RandomNodes = net.nf
					cfg.Seed = 1001
					return core.Point{Label: fmt.Sprintf("%dx%d|nf%d|%s|l%g", net.k, net.n, net.nf, alg, l), Config: cfg}
				}})
		}
	}
	h.render(t)
}

// extVariants declares the shape Ext B and Ext C share: an 8-ary 2-cube
// with V=6 and 4 random faults, one column per (variant, algorithm),
// where set applies the variant spec to the point's config.
func (h *harness) extVariants(t table, variants, algs []string, seed uint64, set func(*core.Config, string)) {
	for _, variant := range variants {
		for _, alg := range algs {
			t.series = append(t.series, series{
				col: fmt.Sprintf("%s %s", variant, algTag[alg]), seeds: 1,
				point: func(l float64, _ int) core.Point {
					cfg := h.base(8, 2, l)
					cfg.V = 6
					cfg.Algorithm = alg
					set(&cfg, variant)
					cfg.Faults.RandomNodes = 4
					cfg.Seed = seed
					return core.Point{Label: fmt.Sprintf("%s|%s|l%g", variant, alg, l), Config: cfg}
				}})
		}
	}
	h.render(t)
}

// extPatterns compares every latency-relevant registry algorithm across
// traffic patterns under faults. Uniform traffic favours minimal routing;
// transpose and hotspot are where Valiant's two-phase load balancing is
// designed to pay off.
func (h *harness) extPatterns() {
	h.extVariants(
		latencyTable("Ext B patterns", "Ext B: traffic patterns under 4 random faults, 8-ary 2-cube, V=6 (mean cycles)",
			[]float64{0.002, 0.004, 0.006}),
		[]string{"uniform", "transpose", "hotspot:frac=0.1"},
		[]string{"det", "adaptive", "valiant", "valiant-adaptive"},
		1002, func(c *core.Config, pattern string) { c.Pattern = pattern })
}

// extSources compares arrival processes at equal offered load: smooth
// deterministic intervals, the paper's Poisson baseline, and MMPP on/off
// bursts whose ON rate is scaled so the long-run rate still equals λ. The
// spread between the three columns at a fixed λ is pure burstiness cost.
func (h *harness) extSources() {
	h.extVariants(
		latencyTable("Ext C sources", "Ext C: arrival processes at equal offered load, 4 random faults, 8-ary 2-cube, V=6 (mean cycles)",
			[]float64{0.002, 0.004, 0.006}),
		[]string{"interval", "poisson", "burst:on=50,off=200"},
		[]string{"det", "adaptive"},
		1003, func(c *core.Config, source string) { c.Traffic = source })
}
