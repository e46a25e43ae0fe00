// Package repro_test holds the developer benchmarks: seven knob-free rows
// to point pprof at, each the cost of one engine Step (or one source Poll)
// on a shape that stresses a different part of the inner loop. Nothing
// gates on them — the judged, bounded numbers are bench/'s (BENCHMARK.json)
// and the zero-allocation contract is core.TestStepAllocatesNothing.
//
//	go test -run xxx -bench StepSaturatedAdaptive -benchtime 5000x -cpuprofile cpu.pprof .
package repro_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// stepEngine is the shared chassis of the Step benchmarks: it builds the
// configured point once, advances 2000 warm unmeasured cycles so the
// network carries steady-state traffic and every scratch buffer has
// reached its high-water mark, then times b.N Steps. Construction stays
// outside the measured region.
func stepEngine(b *testing.B, topo string, v int, lambda float64, more func(c *core.Config)) {
	b.Helper()
	c := core.DefaultConfig(0, 0, lambda)
	c.Topology = topo
	c.V = v
	if more != nil {
		more(&c)
	}
	c.MeasureMessages = 1 << 30 // never stop on quota; b.N bounds the run
	c.MaxCycles = 1 << 62
	c.SaturationBacklog = 1 << 30
	e, err := core.NewEngine(c)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkStepTorusLinkCache is a near-idle 24-ary 2-cube (576 routers,
// almost all idle in any given cycle — bench/'s chaos-sparse shape without
// the churn): the worklist expansion and the event heap are the cost.
func BenchmarkStepTorusLinkCache(b *testing.B) { stepEngine(b, "torus:k=24,n=2", 4, 0.0002, nil) }

// BenchmarkStepMesh is the same point on a mesh: edge routers with unwired
// ports, no dateline classes.
func BenchmarkStepMesh(b *testing.B) { stepEngine(b, "mesh:k=24,n=2", 4, 0.0002, nil) }

// BenchmarkStepSaturatedAdaptive is one Step past saturation — bench/'s
// sat-adaptive shape: a 16-ary 2-cube under adaptive routing with hotspot
// × burst traffic, every lane holding flits and most heads parked on full
// VC banks. The switch phase and the lane-set walk dominate.
func BenchmarkStepSaturatedAdaptive(b *testing.B) {
	stepEngine(b, "torus:k=16,n=2", 6, 0.014, func(c *core.Config) {
		c.Algorithm = "adaptive"
		c.Faults.RandomNodes = 6
		c.Pattern = "hotspot:frac=0.05"
		c.Traffic = "burst:on=50,off=200"
	})
}

// BenchmarkStepWideLanes is the moderate-load 8-ary 2-cube with V=16:
// 5 ports × 16 VCs = 80 lanes per router, so every lane set spans two
// words and the second word carries the injection port.
func BenchmarkStepWideLanes(b *testing.B) { stepEngine(b, "torus:k=8,n=2", 16, 0.006, nil) }

// BenchmarkStepLargeTorus is the scale point: a 32-ary 3-cube (32,768
// routers) under moderate load, bench/'s scale-par shape stepped serially.
func BenchmarkStepLargeTorus(b *testing.B) { stepEngine(b, "torus:k=32,n=3", 4, 0.0005, nil) }

// BenchmarkStepLargeTorusParallel steps the same scale point under the
// phase-barriered worker pool at 1, 2, 4 and 8 domains. Results are
// bit-identical at every width (TestParallelMatchesSerial), so the
// sub-benchmark ratios are the engine's multi-core scaling curve — on
// fewer idle cores than workers they measure barrier + mailbox overhead.
func BenchmarkStepLargeTorusParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			stepEngine(b, "torus:k=32,n=3", 4, 0.0005, func(c *core.Config) { c.Workers = w })
		})
	}
}

// BenchmarkSourcePoll is the traffic layer alone — one Poll per cycle on
// a 16-ary 2-cube (256 nodes) at λ = 0.01, no engine attached. Poisson is
// the event-heap baseline; burst adds the on/off phase bookkeeping on the
// same chassis at equal offered load.
func BenchmarkSourcePoll(b *testing.B) {
	for _, spec := range []string{"poisson", "burst:on=50,off=200"} {
		name, _, _ := strings.Cut(spec, ":")
		b.Run(name, func(b *testing.B) {
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
		})
	}
}
