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

// distances is a reference breadth-first search, independent of walk: the
// hop count from start to every node over channels that are not faulty,
// through nodes admit accepts (nil: all), -1 where unreachable.
func distances(s *Set, start topology.NodeID, admit func(topology.NodeID) bool) []int {
	t := s.Net()
	dist := make([]int, t.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	for frontier := []topology.NodeID{start}; len(frontier) > 0; {
		var next []topology.NodeID
		for _, cur := range frontier {
			for p := 0; p < t.Degree(); p++ {
				port := topology.Port(p)
				if s.LinkFaulty(cur, port) {
					continue
				}
				nb := t.Neighbor(cur, port.Dim(), port.Dir())
				if dist[nb] < 0 && (admit == nil || admit(nb)) {
					dist[nb] = dist[cur] + 1
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	return dist
}

// TestShortestPathProperty: on random node and link faults over tori, a
// mesh, a hypercube and a plane restriction, ShortestPath returns a path of
// the reference search's length whose every hop crosses a usable channel,
// and nil exactly where that search finds the goal unreachable; Disconnects
// agrees with the same reachability.
func TestShortestPathProperty(t *testing.T) {
	r := rng.New(11)
	for _, spec := range []string{"torus:k=5,n=2", "torus:k=4,n=3", "mesh:k=5,n=2", "hypercube:n=4", "torus:k=8,n=1"} {
		net, err := topology.NewNetwork(spec)
		if err != nil {
			t.Fatal(err)
		}
		chans := topology.ChannelsOf(net)
		for trial := 0; trial < 40; trial++ {
			s := NewSet(net)
			for i := r.Intn(net.Nodes() / 3); i > 0; i-- {
				s.MarkNode(topology.NodeID(r.Intn(net.Nodes())))
			}
			for i := r.Intn(len(chans) / 6); i > 0; i-- {
				ch := chans[r.Intn(len(chans))]
				s.MarkLink(ch.Src, ch.Port)
			}
			healthy := s.HealthyNodes()
			if len(healthy) == 0 {
				continue
			}
			var admit func(topology.NodeID) bool
			if net.N() >= 2 && trial%2 == 1 {
				admit = topology.PlaneOf(net, healthy[0], 0, 1).Contains
			}
			cut := false
			for _, cur := range healthy[:min(len(healthy), 4)] {
				dist := distances(s, cur, admit)
				for goal := range dist {
					g := topology.NodeID(goal)
					path := s.ShortestPath(cur, g, admit)
					if admit == nil && cur == healthy[0] && !s.NodeFaulty(g) && dist[goal] < 0 {
						cut = true
					}
					if s.NodeFaulty(g) || dist[goal] < 0 {
						if path != nil {
							t.Fatalf("%s trial %d: path %v to unreachable %d", spec, trial, path, g)
						}
						continue
					}
					if len(path) != dist[goal]+1 || path[0] != cur || path[len(path)-1] != g {
						t.Fatalf("%s trial %d: path %v from %d to %d, want %d hops", spec, trial, path, cur, g, dist[goal])
					}
					for i := 1; i < len(path); i++ {
						if !usableHop(s, path[i-1], path[i]) || (admit != nil && !admit(path[i])) {
							t.Fatalf("%s trial %d: hop %d -> %d of %v is not usable", spec, trial, path[i-1], path[i], path)
						}
					}
				}
			}
			if admit == nil && s.Disconnects() != cut {
				t.Fatalf("%s trial %d: Disconnects = %v, the reference search says %v", spec, trial, !cut, cut)
			}
		}
	}
}

// usableHop reports whether some channel that is not faulty leads a -> b.
func usableHop(s *Set, a, b topology.NodeID) bool {
	t := s.Net()
	for p := 0; p < t.Degree(); p++ {
		port := topology.Port(p)
		if !s.LinkFaulty(a, port) && t.Neighbor(a, port.Dim(), port.Dir()) == b {
			return true
		}
	}
	return false
}
