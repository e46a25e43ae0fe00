package fault

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/topology"
)

func TestMarkNodeIdempotent(t *testing.T) {
	tor := topology.New(8, 2)
	s := NewSet(tor)
	s.MarkNode(5)
	s.MarkNode(5)
	if s.NumNodeFaults() != 1 {
		t.Fatalf("double mark counted twice: %d", s.NumNodeFaults())
	}
	if !s.NodeFaulty(5) || s.NodeFaulty(6) {
		t.Fatal("NodeFaulty wrong")
	}
}

func TestNodeFaultImpliesLinkFaults(t *testing.T) {
	tor := topology.New(8, 2)
	s := NewSet(tor)
	id := tor.FromCoords([]int{3, 3})
	s.MarkNode(id)
	// Every channel into the failed node is faulty at the adjacent router.
	for p := 0; p < tor.Degree(); p++ {
		port := topology.Port(p)
		nb := tor.Neighbor(id, port.Dim(), port.Dir())
		if !s.LinkFaulty(nb, port.Opposite()) {
			t.Errorf("link from %v into failed node not faulty", tor.Coords(nb))
		}
		// And every channel out of the failed node is faulty too.
		if !s.LinkFaulty(id, port) {
			t.Errorf("link out of failed node via %v not faulty", port)
		}
	}
	// Unrelated link stays healthy.
	if s.LinkFaulty(tor.FromCoords([]int{0, 0}), topology.PortFor(0, topology.Plus)) {
		t.Error("unrelated link marked faulty")
	}
}

func TestMarkLinkBidirectional(t *testing.T) {
	tor := topology.New(8, 2)
	s := NewSet(tor)
	src := tor.FromCoords([]int{2, 2})
	port := topology.PortFor(0, topology.Plus)
	s.MarkLink(src, port)
	dst := tor.Neighbor(src, 0, topology.Plus)
	if !s.LinkFaulty(src, port) {
		t.Error("forward link not faulty")
	}
	if !s.LinkFaulty(dst, port.Opposite()) {
		t.Error("reverse link not faulty")
	}
	if s.NodeFaulty(src) || s.NodeFaulty(dst) {
		t.Error("link fault must not fail nodes")
	}
}

func TestDisconnects(t *testing.T) {
	tor := topology.New(4, 2)
	s := NewSet(tor)
	if s.Disconnects() {
		t.Fatal("empty fault set reported disconnected")
	}
	// Isolate node (0,0) by failing its four neighbours.
	for _, c := range [][]int{{1, 0}, {3, 0}, {0, 1}, {0, 3}} {
		s.MarkNode(tor.FromCoords(c))
	}
	if !s.Disconnects() {
		t.Fatal("isolated node not detected")
	}
}

// TestEmptySetConnectsEveryTopology pins the premise of Disconnects' early
// answer for an empty set: the search itself finds every registered
// topology connected without faults, on its smallest instance and on its
// default one.
func TestEmptySetConnectsEveryTopology(t *testing.T) {
	for _, info := range topology.Topologies() {
		built := 0
		for _, spec := range []string{info.Name + ":k=2,n=1", info.Name + ":n=1", info.Name} {
			net, err := topology.NewNetwork(spec)
			if err != nil {
				continue
			}
			built++
			if NewSet(net).search() {
				t.Errorf("%s: the search finds the fault-free network disconnected", spec)
			}
		}
		if built < 2 {
			t.Errorf("%s: built %d of its smallest and default instances, want both", info.Name, built)
		}
	}
}

func TestDisconnectsViaLinks(t *testing.T) {
	tor := topology.New(4, 1) // simple 4-ring
	s := NewSet(tor)
	// Cut both links of node 0: 0-1 and 3-0.
	s.MarkLink(0, topology.PortFor(0, topology.Plus))
	s.MarkLink(0, topology.PortFor(0, topology.Minus))
	if !s.Disconnects() {
		t.Fatal("ring cut in two places with node isolated not detected")
	}
}

func TestRandomPlacesExactCount(t *testing.T) {
	tor := topology.New(8, 2)
	r := rng.New(1)
	for _, nf := range []int{0, 1, 3, 5, 12} {
		s, err := Random(tor, nf, r)
		if err != nil {
			t.Fatalf("nf=%d: %v", nf, err)
		}
		if s.NumNodeFaults() != nf {
			t.Fatalf("nf=%d: placed %d", nf, s.NumNodeFaults())
		}
		if s.Disconnects() {
			t.Fatalf("nf=%d: disconnected placement returned", nf)
		}
	}
}

func TestRandomRejectsImpossible(t *testing.T) {
	tor := topology.New(2, 1)
	r := rng.New(3)
	if _, err := Random(tor, 2, r); err == nil {
		t.Fatal("expected error when nf >= node count")
	}
}

func TestRandomDeterministicGivenSeed(t *testing.T) {
	tor := topology.New(8, 3)
	a, err := Random(tor, 12, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(tor, 12, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	an, bn := a.FaultyNodes(), b.FaultyNodes()
	for i := range an {
		if an[i] != bn[i] {
			t.Fatal("same seed produced different placements")
		}
	}
}

func TestHealthyNodesComplement(t *testing.T) {
	tor := topology.New(4, 2)
	s := NewSet(tor)
	s.MarkNodes([]topology.NodeID{1, 5, 9})
	h := s.HealthyNodes()
	if len(h)+s.NumNodeFaults() != tor.Nodes() {
		t.Fatalf("healthy+faulty != total")
	}
	for _, id := range h {
		if s.NodeFaulty(id) {
			t.Fatalf("healthy list contains faulty node %d", id)
		}
	}
}

func TestPathFaultFree(t *testing.T) {
	tor := topology.New(8, 2)
	s := NewSet(tor)
	mid := tor.FromCoords([]int{2, 0})
	s.MarkNode(mid)
	src := tor.FromCoords([]int{0, 0})
	dst := tor.FromCoords([]int{4, 0})
	path := tor.EcubePath(src, dst)
	if s.PathFaultFree(path, true) {
		t.Fatal("path through faulty node reported clean")
	}
	clean := tor.EcubePath(src, tor.FromCoords([]int{0, 4}))
	if !s.PathFaultFree(clean, true) {
		t.Fatal("clean path reported faulty")
	}
	// exemptFirst: a message may start at a node adjacent to faults; starting
	// AT a faulty node is tolerated only when exempted.
	p2 := []topology.NodeID{mid, tor.FromCoords([]int{3, 0})}
	if s.PathFaultFree(p2, false) {
		t.Fatal("path starting at faulty node with no exemption reported clean")
	}
	if !s.PathFaultFree(p2, true) {
		t.Fatal("exemptFirst not honoured")
	}
}

func TestPropertyRandomNeverDisconnects(t *testing.T) {
	tor := topology.New(8, 2)
	if err := quick.Check(func(seed uint64, nfRaw uint8) bool {
		nf := int(nfRaw) % 10
		s, err := Random(tor, nf, rng.New(seed))
		if err != nil {
			return false
		}
		return !s.Disconnects() && s.NumNodeFaults() == nf
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
