// Package repro_test holds the top-level benchmark harness: one testing.B
// benchmark per figure of the paper's evaluation section, each running a
// scaled-down instance of that figure's workload (the full sweeps live in
// cmd/figures). Reported custom metrics expose the figure's headline
// quantity: cycles of mean latency, throughput, or absorptions per 1000
// messages.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// benchConfig is the shared reduced measurement protocol for benchmark
// points: enough messages for stable means, small enough for -bench runs.
func benchConfig(k, n int, lambda float64) core.Config {
	c := core.DefaultConfig(k, n, lambda)
	c.WarmupMessages = 200
	c.MeasureMessages = 2000
	return c
}

func runPoint(b *testing.B, c core.Config) {
	b.Helper()
	var lastLatency, lastThroughput float64
	var lastQueued uint64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(c)
		if err != nil {
			b.Fatal(err)
		}
		lastLatency = res.MeanLatency
		lastThroughput = res.Throughput
		lastQueued = res.QueuedTotal()
	}
	b.ReportMetric(lastLatency, "latency-cycles")
	b.ReportMetric(lastThroughput*1e3, "kthroughput")
	b.ReportMetric(float64(lastQueued), "queued")
}

// BenchmarkFig1Regions regenerates Fig. 1's region construction and
// classification: every silhouette stamped and coalesced on a 16-ary
// 2-cube.
func BenchmarkFig1Regions(b *testing.B) {
	t := topology.New(16, 2)
	specs := []fault.ShapeSpec{
		{Shape: fault.ShapeBar, A: 4, AnchorA: 2, AnchorB: 2},
		{Shape: fault.ShapeDoubleBar, A: 4, AnchorA: 2, AnchorB: 2},
		{Shape: fault.ShapeRect, A: 3, B: 3, AnchorA: 2, AnchorB: 2},
		{Shape: fault.ShapeL, A: 4, B: 4, AnchorA: 2, AnchorB: 2},
		{Shape: fault.ShapeU, A: 4, B: 5, AnchorA: 2, AnchorB: 2},
		{Shape: fault.ShapePlus, A: 5, B: 5, AnchorA: 2, AnchorB: 2},
		{Shape: fault.ShapeT, A: 5, B: 3, AnchorA: 2, AnchorB: 2},
		{Shape: fault.ShapeH, A: 5, B: 5, AnchorA: 2, AnchorB: 2},
	}
	for i := 0; i < b.N; i++ {
		for _, sp := range specs {
			fs := fault.NewSet(t)
			if _, err := fault.StampShape(fs, 0, 0, 1, sp); err != nil {
				b.Fatal(err)
			}
			regs := fs.Regions()
			for _, r := range regs {
				_ = r.Convex()
			}
		}
	}
}

// Fig. 3 benchmarks: 8-ary 2-cube latency points (deterministic and
// adaptive, fault-free and faulted), one per paper panel family.

func BenchmarkFig3DetV4NoFaults(b *testing.B) {
	c := benchConfig(8, 2, 0.006)
	c.V = 4
	runPoint(b, c)
}

func BenchmarkFig3DetV4Faults3(b *testing.B) {
	c := benchConfig(8, 2, 0.006)
	c.V = 4
	c.Faults.RandomNodes = 3
	runPoint(b, c)
}

func BenchmarkFig3DetV6Faults5M64(b *testing.B) {
	c := benchConfig(8, 2, 0.006)
	c.V = 6
	c.MsgLen = 64
	c.Faults.RandomNodes = 5
	runPoint(b, c)
}

func BenchmarkFig3AdaptiveV10Faults5(b *testing.B) {
	c := benchConfig(8, 2, 0.01)
	c.V = 10
	c.Algorithm = "adaptive"
	c.Faults.RandomNodes = 5
	runPoint(b, c)
}

// Fig. 4 benchmarks: 8-ary 3-cube latency points with nf in {0, 12}.

func BenchmarkFig4DetV4NoFaults(b *testing.B) {
	c := benchConfig(8, 3, 0.006)
	c.V = 4
	runPoint(b, c)
}

func BenchmarkFig4DetV10Faults12(b *testing.B) {
	c := benchConfig(8, 3, 0.008)
	c.V = 10
	c.Faults.RandomNodes = 12
	runPoint(b, c)
}

func BenchmarkFig4AdaptiveV6Faults12(b *testing.B) {
	c := benchConfig(8, 3, 0.008)
	c.V = 6
	c.Algorithm = "adaptive"
	c.Faults.RandomNodes = 12
	runPoint(b, c)
}

// Fig. 5 benchmarks: fault-region latency points (M=32, V=10), one convex
// and one concave region in each routing mode.

func fig5Point(b *testing.B, shapeName, alg string) {
	c := benchConfig(8, 2, 0.012)
	c.V = 10
	c.Algorithm = alg
	c.Faults.Shapes = []core.ShapeStamp{{Spec: fault.PaperFig5Specs()[shapeName], DimA: 0, DimB: 1}}
	runPoint(b, c)
}

func BenchmarkFig5RectDet(b *testing.B)         { fig5Point(b, "rect-shaped", "det") }
func BenchmarkFig5URegionDet(b *testing.B)      { fig5Point(b, "U-shaped", "det") }
func BenchmarkFig5RectAdaptive(b *testing.B)    { fig5Point(b, "rect-shaped", "adaptive") }
func BenchmarkFig5URegionAdaptive(b *testing.B) { fig5Point(b, "U-shaped", "adaptive") }

// Fig. 6 benchmarks: 16-ary 2-cube throughput under saturation load with
// faults (the capacity measurement).

func fig6Point(b *testing.B, nf int, alg string) {
	c := benchConfig(16, 2, 0.012)
	c.V = 6
	c.Algorithm = alg
	c.Faults.RandomNodes = nf
	c.SaturationBacklog = 1 << 30
	c.MaxCycles = 60_000
	runPoint(b, c)
}

func BenchmarkFig6ThroughputDetFaults6(b *testing.B)      { fig6Point(b, 6, "det") }
func BenchmarkFig6ThroughputAdaptiveFaults6(b *testing.B) { fig6Point(b, 6, "adaptive") }

// Fig. 7 benchmarks: messages-queued counting in an 8-ary 3-cube
// (M=32, V=10), generation rate 100 (λ = 0.01).

func fig7Point(b *testing.B, alg string) {
	c := benchConfig(8, 3, 0.01)
	c.V = 10
	c.Algorithm = alg
	c.Faults.RandomNodes = 8
	runPoint(b, c)
}

func BenchmarkFig7QueuedDet(b *testing.B)      { fig7Point(b, "det") }
func BenchmarkFig7QueuedAdaptive(b *testing.B) { fig7Point(b, "adaptive") }

// Engine-scheduler benchmarks: cost of one Step at a low offered load on a
// 24-ary 2-cube (576 routers, nearly all idle in any given cycle). The
// active-set scheduler (two-level: an active-router set, and per-router
// lane sets) touches only routers that can make progress; the dense scan
// — the engine's original behaviour, kept behind the Config.DenseScan
// knob — visits all 576 every cycle. Results are bit-identical between
// the two (see TestActiveSetMatchesDenseScan); only the wall-clock cost
// per simulated cycle differs.

// stepEngine is the shared chassis of the Step benchmarks: it builds the
// configured point once, advances warm unmeasured cycles so the network
// carries steady-state traffic and every scratch buffer has reached its
// high-water mark, then times b.N Steps with allocation reporting.
// Construction stays outside the measured region — the benchmarks gate the
// per-cycle cost (and, with the arena, its zero-allocation contract), not
// setup.
func stepEngine(b *testing.B, c core.Config, warm int) {
	b.Helper()
	c.MeasureMessages = 1 << 30 // never stop on quota; b.N bounds the run
	c.MaxCycles = 1 << 62
	c.SaturationBacklog = 1 << 30
	e, err := core.NewEngine(c)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func stepBench(b *testing.B, dense bool) {
	c := core.DefaultConfig(24, 2, 0.0002)
	c.V = 4
	c.DenseScan = dense
	stepEngine(b, c, 2000)
}

func BenchmarkStepActiveSet(b *testing.B) { stepBench(b, false) }
func BenchmarkStepDenseScan(b *testing.B) { stepBench(b, true) }

// Per-VC scheduler benchmarks: cost of one Step with the second scheduler
// level — per-router lane sets, walked a set bit at a time — against
// the dense Ports()×V lane scan (Config.DenseVCScan, the engine's
// behaviour between PR 1 and the per-VC scheduler). Two regimes:
// "low" is a 24-ary 2-cube at λ=0.0002 (576 routers, nearly all idle;
// the router-level set already skips most of them, so the lane level adds
// little), "mod" is the paper's 8-ary 2-cube at λ=0.006 (busy routers
// with most lanes still empty — the case the lane sets target; the
// win grows with V because the dense scan pays (2n+1)·V per busy router
// while the lane set pays only for occupied lanes). Results are
// bit-identical (TestVCActiveSetMatchesDenseScan); only Step cost
// differs.

func stepBenchVC(b *testing.B, k int, lambda float64, v int, denseVC bool) {
	b.Helper()
	c := core.DefaultConfig(k, 2, lambda)
	c.V = v
	c.DenseVCScan = denseVC
	stepEngine(b, c, 2000)
}

func vcSchedulerGrid(b *testing.B, denseVC bool) {
	for _, p := range []struct {
		name   string
		k      int
		lambda float64
		v      int
	}{
		{"low-k24-v4", 24, 0.0002, 4},
		{"low-k24-v6", 24, 0.0002, 6},
		{"low-k24-v10", 24, 0.0002, 10},
		{"mod-k8-v4", 8, 0.006, 4},
		{"mod-k8-v6", 8, 0.006, 6},
		{"mod-k8-v10", 8, 0.006, 10},
	} {
		b.Run(p.name, func(b *testing.B) { stepBenchVC(b, p.k, p.lambda, p.v, denseVC) })
	}
}

func BenchmarkStepVCActiveSet(b *testing.B) { vcSchedulerGrid(b, false) }
func BenchmarkStepDenseVCScan(b *testing.B) { vcSchedulerGrid(b, true) }

// Source-poll benchmarks: cost of the traffic layer alone — one Poll per
// cycle on a 16-ary 2-cube (256 nodes) at λ = 0.01, no engine attached.
// Poisson is the event-heap baseline; burst adds the MMPP phase-process
// bookkeeping on top of the same chassis at equal offered load.

func sourceBench(b *testing.B, spec string) {
	tor := topology.New(16, 2)
	fs := fault.NewSet(tor)
	src, err := traffic.NewSource(spec, traffic.Env{
		T: tor, F: fs, Sources: fs.HealthyNodes(),
		Lambda: 0.01, MsgLen: 32, Mode: message.Deterministic,
		Pattern: traffic.NewUniform(fs), R: rng.New(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var total int
	for now := int64(1); now <= int64(b.N); now++ {
		total += len(src.Poll(now))
	}
	b.ReportMetric(float64(total)/float64(b.N)*1e3, "msgs/kcycle")
}

func BenchmarkSourcePoll(b *testing.B) {
	b.Run("poisson", func(b *testing.B) { sourceBench(b, "poisson") })
	b.Run("burst", func(b *testing.B) { sourceBench(b, "burst:on=50,off=200") })
}

// BenchmarkStepSaturatedAdaptive is one Step past saturation — the
// reference benchmark's sat-adaptive shape: a 16-ary 2-cube under adaptive
// routing with hotspot × burst traffic, every lane holding flits and most
// heads blocked on full VC banks. It gates the blocked-head rule (a parked
// head is not re-routed until one of its router's output VCs is released)
// and the lane-set walk, which idle-network rows cannot see.
func BenchmarkStepSaturatedAdaptive(b *testing.B) {
	c := core.DefaultConfig(0, 0, 0.014)
	c.Topology = "torus:k=16,n=2"
	c.Algorithm = "adaptive"
	c.V = 6
	c.Faults.RandomNodes = 6
	c.Pattern = "hotspot:frac=0.05"
	c.Traffic = "burst:on=50,off=200"
	stepEngine(b, c, 2000)
}

// BenchmarkStepWideLanes is the moderate-load 8-ary 2-cube with V=16:
// 5 ports × 16 VCs = 80 lanes per router, so every lane set spans two
// words and the second word carries the injection port.
func BenchmarkStepWideLanes(b *testing.B) {
	c := core.DefaultConfig(8, 2, 0.006)
	c.V = 16
	stepEngine(b, c, 2000)
}
