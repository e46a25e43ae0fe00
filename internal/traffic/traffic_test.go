package traffic

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/rng"
	"repro/internal/topology"
)

// TestArrivalLayout pins the per-node scheduled arrival at its 32-bit node
// and index: a generating source holds one per node.
func TestArrivalLayout(t *testing.T) {
	if size := unsafe.Sizeof(arrival{}); size != 16 {
		t.Fatalf("arrival is %d bytes, want 16", size)
	}
}

func TestUniformNeverSelfOrFaulty(t *testing.T) {
	tor := topology.New(8, 2)
	fs, err := fault.Random(tor, 5, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniform(fs)
	r := rng.New(2)
	healthy := fs.HealthyNodes()
	for i := 0; i < 5000; i++ {
		src := healthy[r.Intn(len(healthy))]
		dst := u.Pick(src, r)
		if dst == src {
			t.Fatal("uniform picked the source")
		}
		if fs.NodeFaulty(dst) {
			t.Fatal("uniform picked a faulty destination")
		}
	}
}

func TestUniformIsUniform(t *testing.T) {
	tor := topology.New(4, 2) // 16 nodes
	fs := fault.NewSet(tor)
	u := NewUniform(fs)
	r := rng.New(3)
	src := topology.NodeID(5)
	const draws = 150000
	counts := make(map[topology.NodeID]int)
	for i := 0; i < draws; i++ {
		counts[u.Pick(src, r)]++
	}
	want := float64(draws) / 15
	for id, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("node %d: %d draws, expected ~%.0f", id, c, want)
		}
	}
	if counts[src] != 0 {
		t.Error("source drawn")
	}
}

func TestTranspose(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	p := NewTranspose(tor, fs)
	r := rng.New(4)
	src := tor.FromCoords([]int{2, 5})
	dst := p.Pick(src, r)
	if got := tor.Coords(dst); got[0] != 5 || got[1] != 2 {
		t.Fatalf("transpose of (2,5) = %v", got)
	}
	// Self-transpose (diagonal) falls back to uniform, never self.
	diag := tor.FromCoords([]int{3, 3})
	for i := 0; i < 100; i++ {
		if p.Pick(diag, r) == diag {
			t.Fatal("diagonal transposed to itself")
		}
	}
}

func TestTransposeRotatesHigherDims(t *testing.T) {
	tor := topology.New(4, 3)
	fs := fault.NewSet(tor)
	p := NewTranspose(tor, fs)
	src := tor.FromCoords([]int{1, 2, 3})
	dst := p.Pick(src, rng.New(5))
	if got := tor.Coords(dst); got[0] != 2 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("rotation of (1,2,3) = %v", got)
	}
}

func TestHotspotFraction(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	spot := tor.FromCoords([]int{4, 4})
	p := NewHotspot(NewUniform(fs), spot, 0.3, fs)
	r := rng.New(6)
	src := topology.NodeID(0)
	hits := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if p.Pick(src, r) == spot {
			hits++
		}
	}
	got := float64(hits) / draws
	// 0.3 direct + ~1/63 of the uniform remainder.
	want := 0.3 + 0.7/63
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("hotspot fraction = %.3f, want ~%.3f", got, want)
	}
}

func TestGeneratorRate(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	u := NewUniform(fs)
	lambda := 0.01
	g := NewGenerator(tor, fs.HealthyNodes(), lambda, 32, message.Deterministic, u, rng.New(7))
	const horizon = 20000
	var total int
	for now := int64(1); now <= horizon; now++ {
		total += len(g.Poll(now))
	}
	want := lambda * float64(tor.Nodes()) * horizon
	if math.Abs(float64(total)-want)/want > 0.05 {
		t.Fatalf("generated %d messages, want ~%.0f (±5%%)", total, want)
	}
	if g.Created() != uint64(total) {
		t.Fatal("Created() mismatch")
	}
}

func TestGeneratorMonotoneAndComplete(t *testing.T) {
	tor := topology.New(4, 2)
	fs := fault.NewSet(tor)
	g := NewGenerator(tor, fs.HealthyNodes(), 0.05, 8, message.Adaptive, NewUniform(fs), rng.New(8))
	last := int64(0)
	ids := map[uint64]bool{}
	for now := int64(1); now <= 5000; now++ {
		for _, m := range g.Poll(now) {
			if m.CreatedAt != now {
				t.Fatalf("message stamped %d at cycle %d", m.CreatedAt, now)
			}
			if m.CreatedAt < last {
				t.Fatal("non-monotone creation times")
			}
			last = m.CreatedAt
			if ids[m.ID] {
				t.Fatal("duplicate message ID")
			}
			ids[m.ID] = true
			if m.Len != 8 || m.Mode != message.Adaptive {
				t.Fatal("message parameters wrong")
			}
			if m.Src == m.Dst {
				t.Fatal("self-addressed message")
			}
		}
	}
	if len(ids) == 0 {
		t.Fatal("no messages generated")
	}
}

func TestGeneratorSourcesOnly(t *testing.T) {
	tor := topology.New(4, 2)
	fs := fault.NewSet(tor)
	sources := []topology.NodeID{1, 2}
	g := NewGenerator(tor, sources, 0.1, 4, message.Deterministic, NewUniform(fs), rng.New(9))
	for now := int64(1); now <= 2000; now++ {
		for _, m := range g.Poll(now) {
			if m.Src != 1 && m.Src != 2 {
				t.Fatalf("message from non-source node %d", m.Src)
			}
		}
	}
}

func TestGeneratorPanicsOnBadParams(t *testing.T) {
	tor := topology.New(4, 2)
	fs := fault.NewSet(tor)
	u := NewUniform(fs)
	for _, fn := range []func(){
		func() { NewGenerator(tor, fs.HealthyNodes(), 0, 8, message.Deterministic, u, rng.New(1)) },
		func() { NewGenerator(tor, fs.HealthyNodes(), 0.1, 0, message.Deterministic, u, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad generator params did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestPatternNames(t *testing.T) {
	tor := topology.New(4, 2)
	fs := fault.NewSet(tor)
	if NewUniform(fs).Name() != "uniform" {
		t.Error("uniform name")
	}
	if NewTranspose(tor, fs).Name() != "transpose" {
		t.Error("transpose name")
	}
	if NewHotspot(NewUniform(fs), 0, 0.1, fs).Name() == "" {
		t.Error("hotspot name empty")
	}
}
