package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/viz"
)

// fig1 reproduces Fig. 1: examples of coalesced fault regions in a 2-D
// torus, rendered as ASCII planes with convex/concave classification.
func (h *harness) fig1() {
	h.printf("\n===== Fig. 1: coalesced fault regions in a 2-D torus =====\n")
	t := topology.New(16, 2)
	for _, ex := range []struct{ name, spec string }{
		{"|-shaped (convex)", "bar:a=4"},
		{"||-shaped (convex x2)", "double-bar:a=4"},
		{"square-shaped (convex)", "rect:a=3,b=3"},
		{"L-shaped (concave)", "L:a=4,b=4"},
		{"U-shaped (concave)", "U:a=4,b=5"},
		{"+-shaped (concave)", "plus:a=5,b=5,t=1,ax=2,ay=2"},
		{"T-shaped (concave)", "T:a=5,b=3,ax=2"},
		{"H-shaped (concave)", "H:a=5,b=5"},
	} {
		fs := fault.NewSet(t)
		sp, err := fault.ParseShapeSpec(ex.spec)
		if err == nil {
			_, err = fault.StampShape(fs, 0, 0, 1, sp)
		}
		if err != nil {
			h.printf("%s: %v\n", ex.name, err)
			continue
		}
		h.printf("\n-- %s --\n%s%s", ex.name, viz.RenderPlane(fs), viz.RenderRegions(fs))
	}
}

// latencyFigure renders one latency-vs-traffic figure: a panel per
// (routing algorithm, V), curves per (M, nf). Faulted curves average over
// h.seeds random placements; a point prints as saturated when at least
// half its placements saturate.
func (h *harness) latencyFigure(figName string, k, n int, vs []int, ms []int, nfs []int) {
	for _, algName := range []string{"det", "adaptive"} {
		info, _ := routing.Lookup(algName)
		for _, v := range vs {
			if v < info.MinV {
				continue
			}
			t := latencyTable(fmt.Sprintf("%s %s v%d", figName, algName, v),
				fmt.Sprintf("%s: %s routing, %d-ary %d-cube, V=%d (mean latency, cycles; * = saturated)", figName, algName, k, n, v),
				h.lambdaGrid(v))
			var legend []string
			for _, m := range ms {
				for _, nf := range nfs {
					s := series{col: fmt.Sprintf("M=%d,nf=%d", m, nf), seeds: h.seeds,
						point: func(l float64, seed int) core.Point {
							c := h.base(k, n, l)
							c.V = v
							c.MsgLen = m
							c.Algorithm = algName
							c.Faults.RandomNodes = nf
							c.Seed = uint64(1000 + seed)
							return core.Point{Label: fmt.Sprintf("%s|v%d|m%d|nf%d|l%g|s%d", algName, v, m, nf, l, seed), Config: c}
						}}
					if nf == 0 {
						s.seeds = 1 // fault-free: placement is irrelevant
					}
					t.series = append(t.series, s)
					legend = append(legend, fmt.Sprintf("M%d/nf%d", m, nf))
				}
			}
			cells := h.render(t)
			if h.plot {
				ch := viz.NewChart(t.xs)
				for si, curve := range cells {
					ys := make([]float64, len(curve))
					for xi, c := range curve {
						ys[xi] = c.mean // NaN = missing
						if c.saturated {
							ys[xi] = math.Inf(1)
						}
					}
					ch.Add(legend[si], ys)
				}
				h.printf("\n%s", ch.Render())
			}
		}
	}
}

// fig3: mean message latency vs traffic rate in an 8-ary 2-cube;
// deterministic and adaptive; M in {32,64}; V in {4,6,10}; nf in {0,3,5}.
func (h *harness) fig3() {
	h.printf("\n===== Fig. 3: latency vs traffic, 8-ary 2-cube, random faults =====\n")
	h.latencyFigure("Fig 3", 8, 2, []int{4, 6, 10}, []int{32, 64}, []int{0, 3, 5})
}

// fig4: same in an 8-ary 3-cube with nf in {0,12}.
func (h *harness) fig4() {
	h.printf("\n===== Fig. 4: latency vs traffic, 8-ary 3-cube, random faults =====\n")
	h.latencyFigure("Fig 4", 8, 3, []int{4, 6, 10}, []int{32, 64}, []int{0, 12})
}

// fig5: latency vs traffic for the five fault-region shapes of the paper
// (8-ary 2-cube, M=32, V=10, deterministic and adaptive).
func (h *harness) fig5() {
	h.printf("\n===== Fig. 5: latency vs traffic with fault regions, 8-ary 2-cube, M=32, V=10 =====\n")
	t := latencyTable("Fig 5 shapes", "Fig 5: mean latency (cycles; * = saturated)", h.lambdaGrid(10))
	for _, algName := range []string{"det", "adaptive"} {
		for _, shape := range []struct{ spec, name, tag string }{
			{"rect", "rect-shaped", "rect"}, {"T", "T-shaped", "T"}, {"plus", "Plus-shaped", "+"},
			{"L", "L-shaped", "L"}, {"U", "U-shaped", "U"},
		} {
			spec, _ := fault.ParseShapeSpec(shape.spec) // a bare Fig. 5 name always parses
			nf, _ := spec.CellCount()
			t.series = append(t.series, series{
				col: fmt.Sprintf("%s %s(%d)", algTag[algName], shape.tag, nf), seeds: 1,
				point: func(l float64, _ int) core.Point {
					c := h.base(8, 2, l)
					c.V = 10
					c.MsgLen = 32
					c.Algorithm = algName
					c.Faults.Shapes = []core.ShapeStamp{{Spec: spec, DimA: 0, DimB: 1}}
					return core.Point{Label: fmt.Sprintf("%s|%s|l%g", algTag[algName], shape.name, l), Config: c}
				}})
		}
	}
	h.render(t)
}

// algTag maps registry algorithm names to the two-to-three letter column
// tags the figure tables use.
var algTag = map[string]string{"det": "det", "adaptive": "adp", "valiant": "val", "valiant-adaptive": "vla"}

// fig6: overall throughput vs number of random faulty nodes in a 16-ary
// 2-cube (M=32, V=6), deterministic vs adaptive, averaged over fault
// placements. Offered load sits past the fault-free saturation point so the
// measured delivery rate is the network's capacity.
func (h *harness) fig6() {
	h.printf("\n===== Fig. 6: throughput vs faulty nodes, 16-ary 2-cube, M=32, V=6 =====\n")
	const lambda = 0.012
	t := table{
		plan:  "Fig 6 throughput",
		title: fmt.Sprintf("Fig 6: throughput (messages/node/cycle) at offered λ=%g", lambda),
		xhead: "nf", xw: 8, colw: 14,
		xs: []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		metric: metric{
			value:  func(m metrics.Results) (float64, bool) { return m.Throughput, true },
			format: "%.5f",
		},
	}
	for _, alg := range []struct{ name, col string }{{"det", "deterministic"}, {"adaptive", "adaptive"}} {
		t.series = append(t.series, series{col: alg.col, seeds: h.seeds,
			point: func(nf float64, seed int) core.Point {
				c := h.base(16, 2, lambda)
				c.V = 6
				c.MsgLen = 32
				c.Algorithm = alg.name
				c.Faults.RandomNodes = int(nf)
				c.Seed = uint64(1000 + seed)
				// Throughput runs are capacity measurements: let them run a
				// fixed horizon rather than stopping at a backlog.
				c.SaturationBacklog = 1 << 30
				c.MaxCycles = int64(h.scale.measure) * 40
				return core.Point{Label: fmt.Sprintf("%s|nf%g|s%d", algTag[alg.name], nf, seed), Config: c}
			}})
	}
	h.render(t)
}

// fig7: number of messages queued (absorbed) vs number of random faulty
// nodes in an 8-ary 3-cube (M=32, V=10) for two generation rates. The
// paper gives "generation rate = g" no unit; as messages per node per
// cycle, 70 and 100 would be far past saturation, so g is read per 10,000
// cycles (λ = g/10000), which keeps rate 100 above rate 70 as in the
// paper's legend. Counts are scaled to the paper's 100,000-message
// protocol for comparability.
func (h *harness) fig7() {
	h.printf("\n===== Fig. 7: messages queued vs faulty nodes, 8-ary 3-cube, M=32, V=10 =====\n")
	t := table{
		plan:  "Fig 7 queued",
		title: "Fig 7: messages queued, scaled to per-100k-messages (paper's protocol)",
		xhead: "nf", xw: 8, colw: 16,
		xs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		// The plan runs det before adaptive and rate 70 before 100; the
		// table leads with the paper's legend order.
		cols: []int{3, 1, 2, 0},
		metric: metric{
			value: func(m metrics.Results) (float64, bool) {
				if m.Delivered == 0 {
					return 0, false
				}
				return float64(m.QueuedTotal()) / float64(m.Delivered) * 100000, true
			},
			format: "%.0f",
		},
	}
	for _, algName := range []string{"det", "adaptive"} {
		for _, rate := range []int{70, 100} {
			t.series = append(t.series, series{col: fmt.Sprintf("%s g=%d", algTag[algName], rate), seeds: h.seeds,
				point: func(nf float64, seed int) core.Point {
					c := h.base(8, 3, float64(rate)/10000.0)
					c.V = 10
					c.MsgLen = 32
					c.Algorithm = algName
					c.Faults.RandomNodes = int(nf)
					c.Seed = uint64(2000 + seed)
					return core.Point{Label: fmt.Sprintf("%s|g%d|nf%g|s%d", algTag[algName], rate, nf, seed), Config: c}
				}})
		}
	}
	h.render(t)
}
