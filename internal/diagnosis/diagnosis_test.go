package diagnosis

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/topology"
)

func TestLocalDetectionAtStart(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	bad := tor.FromCoords([]int{3, 3})
	fs.MarkNode(bad)
	p := New(tor, fs)
	// Every neighbour starts knowing the fault; distant nodes do not.
	for d := 0; d < 2; d++ {
		for _, dir := range []topology.Dir{topology.Plus, topology.Minus} {
			nb := tor.Neighbor(bad, d, dir)
			if !p.Knows(nb, bad) {
				t.Errorf("neighbour %v does not know adjacent fault", tor.Coords(nb))
			}
		}
	}
	far := tor.FromCoords([]int{0, 0})
	if p.Knows(far, bad) {
		t.Error("distant node knows fault before any exchange")
	}
	if p.View(bad) != nil {
		t.Error("faulty node has a view")
	}
}

func TestFloodingReachesEveryone(t *testing.T) {
	// Convergence within (diameter + 1) rounds of the healthy network; the
	// fault-free diameters are 8, 14 (a mesh has no short way round) and 5.
	for spec, maxRounds := range map[string]int{"torus:k=8,n=2": 12, "mesh:k=8,n=2": 18, "hypercube:n=5": 8} {
		net, err := topology.NewNetwork(spec)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := fault.Random(net, 5, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		p := New(net, fs)
		if rounds := p.Run(100); rounds > maxRounds {
			t.Fatalf("%s: converged only after %d rounds", spec, rounds)
		}
		for _, h := range fs.HealthyNodes() {
			view := p.View(h)
			if len(view) != fs.NumNodeFaults() {
				t.Fatalf("%s: node %d knows %d faults, want %d", spec, h, len(view), fs.NumNodeFaults())
			}
		}
	}
}

// A region in a mesh corner: edge nodes have fewer neighbours, so the
// boundary is smaller than on a torus and nothing may look past the edge.
func TestMeshCornerRegion(t *testing.T) {
	mesh := topology.NewMesh(8, 2)
	fs := fault.NewSet(mesh)
	if _, err := fault.StampShape(fs, 0, 0, 1, fault.ShapeSpec{Shape: fault.ShapeRect, A: 2, B: 2}); err != nil {
		t.Fatal(err)
	}
	reg := fs.Regions()[0]
	if bnd := BoundaryNodes(mesh, fs, reg); len(bnd) != 4 {
		t.Fatalf("corner 2x2 block boundary = %v, want 4 nodes", bnd)
	}
	if shell := Shell(mesh, fs, reg); len(shell) != 3 {
		t.Fatalf("corner 2x2 block shell = %v, want 3 nodes (the corner node is hidden)", shell)
	}
	p := New(mesh, fs)
	p.Run(100)
	if !p.BoundaryComplete(reg) {
		t.Fatal("boundary incomplete at convergence")
	}
}

func TestKnowledgeRadiusGrowsOneHopPerRound(t *testing.T) {
	tor := topology.New(8, 1) // a ring makes distances exact
	fs := fault.NewSet(tor)
	fs.MarkNode(0)
	p := New(tor, fs)
	// Node 4 (distance 4 from node 0's neighbours 1 and 7... knowledge must
	// travel from node 1 to node 4: 3 hops) learns after 3 rounds.
	if p.Knows(4, 0) {
		t.Fatal("node 4 knows too early")
	}
	p.Step()
	p.Step()
	if p.Knows(4, 0) {
		t.Fatal("node 4 knows after 2 rounds; propagation too fast")
	}
	p.Step()
	if !p.Knows(4, 0) {
		t.Fatal("node 4 still ignorant after 3 rounds")
	}
}

func TestBoundaryNodes(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	if _, err := fault.StampShape(fs, 0, 0, 1, fault.ShapeSpec{Shape: fault.ShapeRect, A: 2, B: 2, AnchorA: 3, AnchorB: 3}); err != nil {
		t.Fatal(err)
	}
	reg := fs.Regions()[0]
	bnd := BoundaryNodes(tor, fs, reg)
	// A 2x2 block has 8 distinct healthy neighbours (no diagonals).
	if len(bnd) != 8 {
		t.Fatalf("boundary size = %d, want 8", len(bnd))
	}
	for _, b := range bnd {
		if fs.NodeFaulty(b) {
			t.Fatal("faulty node in boundary")
		}
	}
}

// The modelling-shortcut justification: at convergence, every absorbing
// node knows the complete adjacent region, so the planner's extent queries
// are locally computable.
func TestBoundaryCompleteAtConvergence(t *testing.T) {
	tor := topology.New(8, 2)
	for name, spec := range fault.PaperFig5Specs() {
		fs := fault.NewSet(tor)
		if _, err := fault.StampShape(fs, 0, 0, 1, spec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reg := fs.Regions()[0]
		p := New(tor, fs)
		if p.BoundaryComplete(reg) && reg.Size() > 3 {
			t.Fatalf("%s: boundary complete before any exchange", name)
		}
		p.Run(100)
		if !p.BoundaryComplete(reg) {
			t.Fatalf("%s: boundary incomplete at convergence", name)
		}
	}
}

// The claim Shell's doc comment makes, checked by property: for random
// connected fault patterns, shell extents equal region extents in every
// dimension — so extent-based detours need only the diagnosable part.
func TestShellExtentsEqualRegionExtents(t *testing.T) {
	tor := topology.New(8, 2)
	for seed := uint64(0); seed < 15; seed++ {
		fs, err := fault.Random(tor, 3+int(seed%8), rng.New(seed))
		if err != nil {
			continue
		}
		for _, reg := range fs.Regions() {
			shellSet := fault.NewSet(tor)
			shellSet.MarkNodes(Shell(tor, fs, reg))
			shellRegs := shellSet.Regions()
			// Merge shell extents across (possibly several) shell pieces by
			// checking every extreme coordinate of the full region appears
			// among shell nodes.
			for d := 0; d < tor.N(); d++ {
				full := reg.Extent(d)
				foundLo, foundHi := false, false
				for _, sr := range shellRegs {
					for _, id := range sr.Nodes {
						if tor.Coord(id, d) == full.Lo {
							foundLo = true
						}
						if tor.Coord(id, d) == full.Hi {
							foundHi = true
						}
					}
				}
				if !foundLo || !foundHi {
					t.Fatalf("seed %d: extent extreme of dim %d not on shell", seed, d)
				}
			}
		}
	}
}

func TestRoundsNeededScalesWithRegionDiameter(t *testing.T) {
	tor := topology.New(16, 2)
	fs := fault.NewSet(tor)
	// A long bar: the far ends' boundary nodes need ~length rounds.
	if _, err := fault.StampShape(fs, 0, 0, 1, fault.ShapeSpec{Shape: fault.ShapeBar, A: 6, AnchorA: 5, AnchorB: 5}); err != nil {
		t.Fatal(err)
	}
	reg := fs.Regions()[0]
	p := New(tor, fs)
	rounds := 0
	for !p.BoundaryComplete(reg) && rounds < 50 {
		p.Step()
		rounds++
	}
	if rounds < 2 {
		t.Fatalf("6-long bar boundary complete after %d rounds; too fast", rounds)
	}
	if rounds > 10 {
		t.Fatalf("boundary needed %d rounds; flooding broken", rounds)
	}
}
