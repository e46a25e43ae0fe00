package core

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func TestValidate(t *testing.T) {
	good := DefaultConfig(8, 2, 0.003)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	slow := good
	slow.Td, slow.Delta, slow.LinkLatency, slow.CreditDelay = topology.MaxLinkLatency, topology.MaxLinkLatency, topology.MaxLinkLatency, topology.MaxLinkLatency
	if err := slow.Validate(); err != nil {
		t.Fatalf("cycle counts at topology.MaxLinkLatency refused: %v", err)
	}
	bad := []func(c *Config){
		func(c *Config) { c.Topology = "" },          // no default topology
		func(c *Config) { c.Topology = "torus:k=1" }, // radix below 2
		func(c *Config) { c.Topology = "torus:n=0" }, // dimension below 1
		func(c *Config) { c.V = 1 },
		func(c *Config) { c.V = 2; c.Algorithm = "adaptive" },
		func(c *Config) { c.BufDepth = 0 },
		func(c *Config) { c.BufDepth = router.MaxDepth + 1 }, // a lane's ring indices are bytes
		func(c *Config) { c.V = router.MaxV + 1 },            // a route's output VC is a byte
		func(c *Config) { c.MsgLen = 0 },
		func(c *Config) { c.MsgLen = message.MaxLen + 1 }, // flit MaxLen+1 would read as a head
		func(c *Config) { c.Lambda = 0 },
		func(c *Config) { c.Lambda = math.NaN() }, // NaN compares false against every bound
		func(c *Config) { c.Lambda = math.Inf(1) },
		func(c *Config) { c.MeasureMessages = 0 },
		func(c *Config) { c.WarmupMessages = -1 },
		func(c *Config) { c.Td = -1 },
		func(c *Config) { c.Td = math.MaxInt64 }, // now+1+Td wrapped negative: no decision time at all
		func(c *Config) { c.Delta = topology.MaxLinkLatency + 1 },
		func(c *Config) { c.LinkLatency = topology.MaxLinkLatency + 1 },
		func(c *Config) { c.CreditDelay = topology.MaxLinkLatency + 1 },
		func(c *Config) { c.Pattern = "bursty" },                       // a source name, not a pattern
		func(c *Config) { c.Pattern = "hotspot:frac=1.5" },             // fraction out of (0,1]
		func(c *Config) { c.Pattern = "hotspot:node=64" },              // node outside the 8x8 torus
		func(c *Config) { c.Pattern = "hotspot:node=-1" },              // negative node
		func(c *Config) { c.Pattern = "weights:64=1" },                 // per-node key out of range
		func(c *Config) { c.Pattern = "uniform:x=1" },                  // unknown parameter
		func(c *Config) { c.Traffic = "uniform" },                      // a pattern name, not a source
		func(c *Config) { c.Traffic = "burst:on=-5" },                  // bad duration
		func(c *Config) { c.Traffic = "burst:quux=1" },                 // unknown parameter
		func(c *Config) { c.Traffic = "nodemap:default=0.001,64=0.1" }, // node out of range
		func(c *Config) { c.Traffic = "replay" },                       // missing file=
		func(c *Config) { c.Faults.RandomNodes = 64 },
		func(c *Config) { // an anchor StampShape would reduce to a negative coordinate
			c.Faults.Shapes = []ShapeStamp{{Spec: fault.ShapeSpec{Shape: fault.ShapeBar, A: 2, AnchorA: -1}, DimA: 0, DimB: 1}}
		},
	}
	for i, mutate := range bad {
		c := DefaultConfig(8, 2, 0.003)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestValidateRefusesOversizedShapeCheaply: a silhouette larger than its
// plane is refused within the plane's k² cells. Validate once counted the
// cells first, enumerating all A·B of them (a bar of 4 000 000 peaked at
// 212 MiB before it was called self-overlapping).
func TestValidateRefusesOversizedShapeCheaply(t *testing.T) {
	c := DefaultConfig(8, 2, 0.003)
	c.Faults.Shapes = []ShapeStamp{{Spec: fault.ShapeSpec{Shape: fault.ShapeBar, A: 1 << 30}, DimA: 0, DimB: 1}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := c.Validate()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "self-overlaps") {
		t.Errorf("Validate of a bar of 2^30 on %s: %v, want a self-overlap error", c.Topology, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("Validate allocated %d bytes refusing it, want < 1 MiB", alloc)
	}
}

// TestRetiredKnobsRejected: the five ablation-knob names survive only as
// compile surface for bench/, and setting one is an error at every layer
// that still declares it, never a silent no-op.
func TestRetiredKnobsRejected(t *testing.T) {
	for name, set := range map[string]func(*Config){
		"DenseScan":   func(c *Config) { c.DenseScan = true },
		"DenseVCScan": func(c *Config) { c.DenseVCScan = true },
		"NoLinkCache": func(c *Config) { c.NoLinkCache = true },
		"NoArena":     func(c *Config) { c.NoArena = true },
		"GlobalRNG":   func(c *Config) { c.GlobalRNG = true },
	} {
		c := DefaultConfig(4, 2, 0.003)
		set(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s = true: Validate = %v, want an error naming the field", name, err)
		}
	}
	panics := func(what string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	panics("message.NewPool(n, true)", func() { message.NewPool(2, true) })
	tor := topology.New(4, 2)
	fs := fault.NewSet(tor)
	alg, err := routing.New("det", tor, fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := network.DefaultParams(2)
	p.DenseScan = true
	panics("network.New with Params.DenseScan", func() {
		network.New(tor, fs, alg, nil, metrics.NewCollector(0), p, rng.New(1))
	})
}

// TestNonFiniteSpecParametersRejected pins the one place numbers enter a
// spec (registry.Args): NaN/±Inf parameters fail Validate for every seam
// instead of reaching the engine, where an infinite burst length or Pareto
// shape spins NewEngine's arrival pre-scheduling forever.
func TestNonFiniteSpecParametersRejected(t *testing.T) {
	for _, mutate := range []func(c *Config){
		func(c *Config) { c.Traffic = "burst:on=Inf,off=200" },
		func(c *Config) { c.Traffic = "pareto:shape=Inf" },
		func(c *Config) { c.Traffic = "poisson:rate=Inf" },
		func(c *Config) { c.Traffic = "nodemap:default=Inf" },
		func(c *Config) { c.Traffic = "nodemap:default=0.001,5=+Inf" },
		func(c *Config) { c.Pattern = "weights:5=3,rest=Inf" },
		func(c *Config) { c.Pattern = "hotspot:frac=NaN" },
		func(c *Config) { c.FaultSchedule = "mtbf:mtbf=Inf,mttr=10" },
	} {
		c := DefaultConfig(8, 2, 0.003)
		mutate(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("pattern %q traffic %q schedule %q: Validate() = %v, want a not-finite error",
				c.Pattern, c.Traffic, c.FaultSchedule, err)
		}
	}
}

func TestBuildFaultsRandomAndShapes(t *testing.T) {
	tor := topology.New(8, 2)
	spec := FaultSpec{
		RandomNodes: 3,
		Shapes: []ShapeStamp{{
			Spec: fault.ShapeSpec{Shape: fault.ShapeBar, A: 2, AnchorA: 6, AnchorB: 6},
			DimA: 0, DimB: 1,
		}},
	}
	fs, err := BuildFaults(tor, spec, 99)
	if err != nil {
		t.Fatal(err)
	}
	if fs.NumNodeFaults() < 5 {
		t.Fatalf("faults = %d, want >= 5", fs.NumNodeFaults())
	}
	if fs.Disconnects() {
		t.Fatal("disconnecting configuration returned")
	}
	// Deterministic given the seed.
	fs2, err := BuildFaults(tor, spec, 99)
	if err != nil {
		t.Fatal(err)
	}
	a, b := fs.FaultyNodes(), fs2.FaultyNodes()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("fault build not deterministic")
		}
	}
}

func TestBuildFaultsEmpty(t *testing.T) {
	tor := topology.New(4, 2)
	fs, err := BuildFaults(tor, FaultSpec{}, 1)
	if err != nil || fs.NumNodeFaults() != 0 {
		t.Fatalf("empty spec: %v, %d faults", err, fs.NumNodeFaults())
	}
	if !(FaultSpec{}).Empty() {
		t.Fatal("Empty() wrong")
	}
}

func TestRunSmokeFaultFree(t *testing.T) {
	c := DefaultConfig(4, 2, 0.01)
	c.WarmupMessages = 100
	c.MeasureMessages = 500
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatal("low load run saturated")
	}
	if res.Delivered < 500 {
		t.Fatalf("delivered %d < quota", res.Delivered)
	}
	if res.MeanLatency < float64(c.MsgLen) {
		t.Fatalf("mean latency %.1f below message length", res.MeanLatency)
	}
	if res.QueuedTotal() != 0 {
		t.Fatal("software stops in fault-free run")
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput not positive")
	}
}

func TestRunWithFaultsBothModes(t *testing.T) {
	for _, alg := range []string{"det", "adaptive"} {
		c := DefaultConfig(8, 2, 0.004)
		c.Algorithm = alg
		c.V = 4
		c.WarmupMessages = 100
		c.MeasureMessages = 1000
		c.Faults.RandomNodes = 5
		c.Seed = 7
		res, err := Run(c)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Delivered < 1000 {
			t.Fatalf("%s: delivered %d", alg, res.Delivered)
		}
		if res.Dropped != 0 {
			t.Fatalf("%s: dropped %d", alg, res.Dropped)
		}
		if res.QueuedTotal() == 0 {
			t.Fatalf("%s: no absorptions with 5 faults", alg)
		}
	}
}

func TestRunSaturates(t *testing.T) {
	c := DefaultConfig(4, 2, 0.5) // absurd load: must saturate quickly
	c.WarmupMessages = 100
	c.MeasureMessages = 50000
	c.MaxCycles = 30000
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("overloaded run not flagged saturated")
	}
	if res.AcceptedFraction >= 1 {
		t.Fatalf("accepted fraction %v at 25x saturation load", res.AcceptedFraction)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	c := DefaultConfig(8, 2, 0.003)
	c.WarmupMessages = 50
	c.MeasureMessages = 400
	c.Faults.RandomNodes = 3
	r1, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same config, different results:\n%+v\n%+v", r1, r2)
	}
}

func TestSweepMatchesSerialAndParallel(t *testing.T) {
	var points []Point
	for _, lambda := range []float64{0.002, 0.004} {
		for _, alg := range []string{"det", "adaptive"} {
			c := DefaultConfig(4, 2, lambda)
			c.WarmupMessages = 50
			c.MeasureMessages = 300
			c.Algorithm = alg
			points = append(points, Point{Label: "p", Config: c})
		}
	}
	serial := RunSweepFunc(points, 1, nil)
	parallel := RunSweepFunc(points, 4, nil)
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("sweep error: %v / %v", serial[i].Err, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Results, parallel[i].Results) {
			t.Fatalf("point %d differs between serial and parallel", i)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	c := DefaultConfig(8, 2, 0.003)
	c.V = 0
	if _, err := Run(c); err == nil || !strings.Contains(err.Error(), "V >= 2") {
		t.Fatalf("bad config not rejected: %v", err)
	}
}

func TestPatterns(t *testing.T) {
	for _, p := range []string{
		"uniform", "transpose", "hotspot",
		"hotspot:frac=0.2,node=7", "bitrev", "weights:3=2,9=1,rest=1",
	} {
		c := DefaultConfig(4, 2, 0.01)
		c.Pattern = p
		c.WarmupMessages = 20
		c.MeasureMessages = 200
		res, err := Run(c)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Delivered < 200 {
			t.Fatalf("%s: delivered %d", p, res.Delivered)
		}
	}
}

// TestTrafficSources runs every generating source spec end-to-end through
// the full config → registry → engine path.
func TestTrafficSources(t *testing.T) {
	for _, s := range []string{
		"poisson", "poisson:rate=0.008",
		"interval", "interval:period=150",
		"burst:on=40,off=120", "burst:on=40,off=120,rate=0.03",
		"nodemap:default=0.005,0=0.02,7=0",
	} {
		c := DefaultConfig(4, 2, 0.01)
		c.Traffic = s
		c.WarmupMessages = 20
		c.MeasureMessages = 200
		res, err := Run(c)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.Delivered < 200 {
			t.Fatalf("%s: delivered %d", s, res.Delivered)
		}
	}
}

// TestCaptureThenReplayThroughRun closes the capture → file → replay loop
// at the façade level: a captured run's workload, written to disk and
// re-driven via Traffic="replay:file=...", must deliver the same message
// count with the same mean latency (the engine seed is unchanged and the
// workload is identical by construction).
func TestCaptureThenReplayThroughRun(t *testing.T) {
	var w trace.Workload
	c := DefaultConfig(8, 2, 0.006)
	c.WarmupMessages = 50
	c.MeasureMessages = 1000
	c.CaptureWorkload = &w
	base, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() == 0 {
		t.Fatal("nothing captured")
	}
	file := filepath.Join(t.TempDir(), "w.csv")
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := DefaultConfig(8, 2, 0.006)
	c2.WarmupMessages = 50
	c2.MeasureMessages = 1000
	c2.Traffic = "replay:file=" + file
	rep, err := Run(c2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != base.Delivered {
		t.Fatalf("replay delivered %d, capture run %d", rep.Delivered, base.Delivered)
	}
	if rep.MeanLatency != base.MeanLatency {
		t.Fatalf("replay mean latency %.3f, capture run %.3f", rep.MeanLatency, base.MeanLatency)
	}
}

func TestMaxCyclesTracksSourceRate(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	build := func(c Config) traffic.Source {
		t.Helper()
		src, err := buildWorkload(c, tor, fs, message.Deterministic, nil, rng.New(c.Seed).Split(1))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	base := DefaultConfig(8, 2, 0.004) // warmup 1000 + measure 10000
	quota := float64(base.WarmupMessages + base.MeasureMessages)

	// The default poisson source offers exactly λ, so the bound matches the
	// λ-derived formula.
	if got, want := base.maxCycles(build(base), 64), int64(20*quota/(0.004*64)); got != want {
		t.Errorf("poisson bound = %d, want %d", got, want)
	}

	// A nodemap far lighter than λ needs a proportionally longer run; the
	// λ-derived bound (~859k cycles) would truncate it spuriously. The
	// source accumulates its per-node rates, so allow a rounding cycle.
	light := base
	light.Traffic = "nodemap:default=0.0001"
	got, want := light.maxCycles(build(light), 64), int64(20*quota/(0.0001*64))
	if got < want-1 || got > want+1 {
		t.Errorf("nodemap bound = %d, want %d±1", got, want)
	}

	// Explicit MaxCycles always wins.
	pinned := light
	pinned.MaxCycles = 123
	if got := pinned.maxCycles(build(pinned), 64); got != 123 {
		t.Errorf("pinned bound = %d, want 123", got)
	}
}

// TestNewEngineAllocationsPerNode pins the engine's construction cost:
// every router's lanes, output VCs, flit rings, arbitration pointers, lane
// sets and rng streams are carved from a handful of slabs, so building an
// engine makes a number of allocations that does not grow with the node
// count — 52 per node before the lane arena, 1.03 while each router's rng
// stream was an object of its own, 0.02 since. The bound of 0.1 fails on
// any new per-node object, in the engine or in the topology, routing and
// traffic layers it builds.
func TestNewEngineAllocationsPerNode(t *testing.T) {
	c := DefaultConfig(0, 0, 0.001)
	c.Topology = "torus:k=16,n=3"
	c.V = 4
	const nodes = 16 * 16 * 16
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := NewEngine(c); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewEngine on %s, V=%d: %.0f allocations, %.2f per node", c.Topology, c.V, allocs, allocs/nodes)
	if perNode := allocs / nodes; perNode > 0.1 {
		t.Fatalf("NewEngine allocates %.2f objects per node, want <= 0.1 (%.0f total)", perNode, allocs)
	}
}

// TestAutoWorkers pins where automatic engine workers start: the paper's
// and bench/'s single points of 512 and 576 routers stay serial, where two
// domains measured slower, and the 32-ary 3-cube gets two domains wherever
// two cores run it.
func TestAutoWorkers(t *testing.T) {
	for _, nodes := range []int{16, 512, 576, 2*MinDomainNodes - 1} {
		if w := AutoWorkers(nodes); w != 1 {
			t.Errorf("AutoWorkers(%d) = %d, want 1", nodes, w)
		}
	}
	if want := min(2, runtime.GOMAXPROCS(0)); AutoWorkers(2*MinDomainNodes) != want || AutoWorkers(32768) < want {
		t.Errorf("AutoWorkers(%d) = %d and AutoWorkers(32768) = %d, want %d and at least %d",
			2*MinDomainNodes, AutoWorkers(2*MinDomainNodes), AutoWorkers(32768), want, want)
	}
}

// TestNewEngineBytesPerNode bounds the heap a fresh engine retains per
// node on the shape of TestNewEngineAllocationsPerNode: lanes and their
// flit slots, output VCs, the router headers, the link table, the software
// layer and the rng streams, almost all of it proportional to the node
// count. The bound sits just above the current reading, so a per-node
// record that grows fails here and not only in the benchmark's peak RSS.
func TestNewEngineBytesPerNode(t *testing.T) {
	c := DefaultConfig(0, 0, 0.001)
	c.Topology = "torus:k=16,n=3"
	c.V = 4
	const nodes = 16 * 16 * 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	perNode := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / nodes
	t.Logf("NewEngine on %s, V=%d: %.0f bytes retained per node", c.Topology, c.V, perNode)
	const bound = 932 // 905 on go1.24 + 3 %; the reading is 909 with the serial engine's domain table
	if perNode > bound {
		t.Fatalf("NewEngine retains %.0f bytes per node, want <= %d", perNode, bound)
	}
}

// TestStepAllocatesNothing is the zero-allocation contract of the engine's
// steady state: once a run has warmed up — traffic in flight, every
// scratch buffer, lane set and arena slab at its high-water mark — a Step
// allocates no object, whatever the topology, load, routing algorithm or
// lane width. testing.AllocsPerRun divides like a benchmark's allocs/op
// column, so any per-cycle allocation on the hot path reads >= 1. Serial
// engines only: Workers > 1 spawns goroutines per phase by design.
func TestStepAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		slow bool
		runs int // Steps measured after the warm-up; 0 means 1000
		cfg  func(c *Config)
	}{
		{"idle-torus-k24", false, 0, func(c *Config) {
			c.Topology, c.V, c.Lambda = "torus:k=24,n=2", 4, 0.0002
		}},
		{"idle-mesh-k24", false, 0, func(c *Config) {
			c.Topology, c.V, c.Lambda = "mesh:k=24,n=2", 4, 0.0002
		}},
		{"wide-lanes-v16", false, 0, func(c *Config) {
			c.Topology, c.V, c.Lambda = "torus:k=8,n=2", 16, 0.006
		}},
		{"torus-k16-n3", false, 0, func(c *Config) {
			c.Topology, c.V, c.Lambda = "torus:k=16,n=3", 4, 0.001
		}},
		// bench/'s fig4-faulted shape: the absorb-replan-reinject path.
		{"fig4-faulted", false, 0, func(c *Config) {
			c.Topology, c.V, c.Lambda = "torus:k=8,n=3", 6, 0.008
			c.Faults.RandomNodes = 12
		}},
		// bench/'s sat-adaptive shape: every lane holds flits, most heads
		// are parked in the blocked sets.
		{"sat-adaptive", false, 0, func(c *Config) {
			c.Topology, c.V, c.Lambda = "torus:k=16,n=2", 6, 0.014
			c.Algorithm = "adaptive"
			c.Faults.RandomNodes = 6
			c.Pattern = "hotspot:frac=0.05"
			c.Traffic = "burst:on=50,off=200"
		}},
		// bench/'s scale-par shape, serial: 32,768 routers. 50 measured
		// Steps catch a per-Step allocation as surely as 1 000 (the average
		// is divided in integers) and take a twentieth of the time.
		{"torus-k32-n3", true, 50, func(c *Config) {
			c.Topology, c.V, c.Lambda = "torus:k=32,n=3", 4, 0.0005
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("2000 warm-up and 50 measured Steps of a 32-ary 3-cube take ~7 s")
			}
			c := DefaultConfig(0, 0, 0)
			tc.cfg(&c)
			c.MeasureMessages = 1 << 30 // never stop on quota
			c.MaxCycles = 1 << 62
			c.SaturationBacklog = 1 << 30
			e, err := NewEngine(c)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				e.Step()
			}
			runs := tc.runs
			if runs == 0 {
				runs = 1000
			}
			if allocs := testing.AllocsPerRun(runs, e.Step); allocs != 0 {
				t.Fatalf("steady-state Step allocates %.0f objects per cycle, want 0", allocs)
			}
		})
	}
}
