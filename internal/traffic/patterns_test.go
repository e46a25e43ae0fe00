package traffic

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/topology"
)

// TestPickAllocsEveryPattern holds every registered pattern to the
// engine's zero-allocation hot path — Pick runs once per generated
// message — on a fault-free and a faulted 8-ary 2-cube, from every
// healthy source.
func TestPickAllocsEveryPattern(t *testing.T) {
	specs := map[string]string{"weights": "weights:3=2,rest=1"} // needs an entry
	tor := topology.New(8, 2)
	faulted, err := fault.Random(tor, 5, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range Patterns() {
		t.Run(info.Name, func(t *testing.T) {
			spec := info.Name
			if s, ok := specs[spec]; ok {
				spec = s
			}
			for _, f := range []*fault.Set{fault.NewSet(tor), faulted} {
				p, err := NewPattern(spec, tor, f)
				if err != nil {
					t.Fatal(err)
				}
				r := rng.New(1)
				for _, src := range f.HealthyNodes() {
					if allocs := testing.AllocsPerRun(20, func() { p.Pick(src, r) }); allocs != 0 {
						t.Fatalf("%d faults, src %d: %v allocs/Pick, want 0", f.NumNodeFaults(), src, allocs)
					}
				}
			}
		})
	}
}

func TestBitReversalPermutation(t *testing.T) {
	tor := topology.New(8, 2) // 64 nodes, 6 bits
	fs := fault.NewSet(tor)
	p, err := NewPattern("bitrev", tor, fs)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	for src := 0; src < tor.Nodes(); src++ {
		want := topology.NodeID(bits.Reverse64(uint64(src)) >> (64 - 6))
		got := p.Pick(topology.NodeID(src), r)
		if want != topology.NodeID(src) && got != want {
			t.Fatalf("bitrev(%d) = %d, want %d", src, got, want)
		}
		if got == topology.NodeID(src) {
			t.Fatalf("bitrev picked the source %d", src)
		}
	}
}

func TestBitReversalFallsBackOnFaulty(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	src := topology.NodeID(1) // reverses to 32
	fs.MarkNode(topology.NodeID(32))
	p, err := NewPattern("bitrev", tor, fs)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		dst := p.Pick(src, r)
		if dst == src || fs.NodeFaulty(dst) {
			t.Fatal("bitrev fallback picked source or faulty node")
		}
	}
}

func TestBitReversalNeedsPowerOfTwo(t *testing.T) {
	tor := topology.New(6, 2) // 36 nodes
	if _, err := NewPattern("bitrev", tor, fault.NewSet(tor)); err == nil {
		t.Fatal("non-power-of-two node count accepted")
	}
}

func TestWeightedRespectsWeights(t *testing.T) {
	tor := topology.New(4, 2)
	fs := fault.NewSet(tor)
	// Node 3 three times the weight of node 9; nothing else.
	p, err := NewPattern("weights:3=3,9=1", tor, fs)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	const draws = 60_000
	counts := map[topology.NodeID]int{}
	for i := 0; i < draws; i++ {
		counts[p.Pick(0, r)]++
	}
	if len(counts) != 2 {
		t.Fatalf("weighted drew outside the map: %v", counts)
	}
	ratio := float64(counts[3]) / float64(counts[9])
	if math.Abs(ratio-3) > 0.25 {
		t.Fatalf("weight ratio %.2f, want ~3", ratio)
	}
}

func TestWeightedRestAndSourceExclusion(t *testing.T) {
	tor := topology.New(4, 2)
	fs := fault.NewSet(tor)
	p, err := NewPattern("weights:5=10,rest=1", tor, fs)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	hits := 0
	const draws = 30_000
	for i := 0; i < draws; i++ {
		dst := p.Pick(5, r) // source is the hot node itself
		if dst == 5 {
			t.Fatal("weighted picked the source")
		}
		hits++
	}
	if hits != draws {
		t.Fatal("draws lost")
	}
	// With src=5 excluded, the remaining 15 nodes are uniform-ish.
	src := topology.NodeID(0)
	hot := 0
	for i := 0; i < draws; i++ {
		if p.Pick(src, r) == 5 {
			hot++
		}
	}
	want := 10.0 / 25.0 // weight 10 of total 10 + 15·1
	got := float64(hot) / draws
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("hot fraction %.3f, want ~%.3f", got, want)
	}
}

func TestHotspotNodeParam(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	p, err := NewPattern("hotspot:frac=0.5,node=12", tor, fs)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	hits := 0
	const draws = 40_000
	for i := 0; i < draws; i++ {
		if p.Pick(0, r) == 12 {
			hits++
		}
	}
	got := float64(hits) / draws
	want := 0.5 + 0.5/63
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("hotspot fraction at node 12 = %.3f, want ~%.3f", got, want)
	}
}

func TestHotspotDefaultNodeIsMiddleHealthy(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	p, err := NewPattern("hotspot:frac=1", tor, fs)
	if err != nil {
		t.Fatal(err)
	}
	healthy := fs.HealthyNodes()
	want := healthy[len(healthy)/2]
	r := rng.New(6)
	src := topology.NodeID(0)
	if got := p.Pick(src, r); got != want {
		t.Fatalf("default hotspot node %d, want %d (middle healthy)", got, want)
	}
}

func TestHotspotRejectsFaultyNode(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	fs.MarkNode(12)
	if _, err := NewPattern("hotspot:node=12", tor, fs); err == nil {
		t.Fatal("faulty hotspot node accepted")
	}
}
