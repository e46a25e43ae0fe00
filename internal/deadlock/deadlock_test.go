package deadlock

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestTrivialCycleDetected(t *testing.T) {
	g := Graph{}
	a := VC{Ch: topology.ChannelID{Src: 0, Port: 0}}
	b := VC{Ch: topology.ChannelID{Src: 1, Port: 0}}
	g.AddEdge(a, b)
	if g.Cycle() != nil {
		t.Fatal("single edge reported cyclic")
	}
	g.AddEdge(b, a)
	cyc := g.Cycle()
	if len(cyc) != 3 || cyc[0] != cyc[len(cyc)-1] {
		t.Fatalf("cycle witness malformed: %v", cyc)
	}
}

func TestLongerCycleWitness(t *testing.T) {
	g := Graph{}
	mk := func(i int) VC { return VC{Ch: topology.ChannelID{Src: topology.NodeID(i), Port: 0}} }
	for i := 0; i < 5; i++ {
		g.AddEdge(mk(i), mk((i+1)%5))
	}
	cyc := g.Cycle()
	if cyc == nil {
		t.Fatal("5-cycle not found")
	}
	if len(cyc) != 6 {
		t.Fatalf("witness length = %d, want 6", len(cyc))
	}
}

// oneVC emulates class-less channels: every candidate of the wrapped
// router is mapped to VC 0.
type oneVC struct{ routing.Router }

func (o oneVC) Route(cur topology.NodeID, m *message.Message) routing.Decision {
	dec := o.Router.Route(cur, m)
	for i := range dec.Preferred {
		dec.Preferred[i].VC = 0
	}
	return dec
}

// Without dateline classes a torus ring's e-cube CDG is cyclic; with them it
// must be acyclic. This is the heart of the Dally-Seitz construction the
// paper's deterministic base relies on.
func TestRingWithoutClassesIsCyclic(t *testing.T) {
	ring := topology.New(4, 1)
	det, err := routing.New("det", ring, fault.NewSet(ring), 2)
	if err != nil {
		t.Fatal(err)
	}
	if g, err := Build(det); err != nil || g.Cycle() != nil {
		t.Fatalf("dateline-classed ring: err %v, cycle %v", err, g.Cycle())
	}
	g, err := Build(oneVC{det})
	if err != nil {
		t.Fatal(err)
	}
	if cyc := g.Cycle(); len(cyc) != 5 {
		t.Fatalf("class-less ring CDG should have a 4-channel cycle, got %v", cyc)
	}
}

// faultSets returns the named fault configurations of one TestRouteCDG
// row: fault-free, random node faults, and on the 8-ary 2-D networks the
// five Fig. 5 regions. Each is a core.FaultSpec placed by core.BuildFaults,
// so the cell "random:nf=3,seed=1" is the fault set `swsim -faults 3
// -seed 1` simulates on that network.
func faultSets(t *testing.T, net topology.Network) (names []string, sets []*fault.Set) {
	add := func(name string, spec core.FaultSpec, seed uint64) {
		fs, err := core.BuildFaults(net, spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		names, sets = append(names, name), append(sets, fs)
	}
	add("fault-free", core.FaultSpec{}, 0)
	if testing.Short() {
		return names, sets
	}
	for _, nf := range []int{3, 6} {
		for seed := uint64(1); seed <= 3; seed++ {
			add(fmt.Sprintf("random:nf=%d,seed=%d", nf, seed), core.FaultSpec{RandomNodes: nf}, seed)
		}
	}
	if net.K() == 8 && net.N() == 2 {
		for _, shape := range []struct{ spec, cell string }{
			{"rect", "rect-shaped"}, {"T", "T-shaped"}, {"plus", "Plus-shaped"}, {"L", "L-shaped"}, {"U", "U-shaped"},
		} {
			spec, err := fault.ParseShapeSpec(shape.spec)
			if err != nil {
				t.Fatal(err)
			}
			add(shape.cell, core.FaultSpec{Shapes: []core.ShapeStamp{{Spec: spec, DimA: 0, DimB: 1}}}, 0)
		}
	}
	return names, sets
}

// TestRouteCDG builds the dependency graph of every registered algorithm
// on tori, meshes and a hypercube, fault-free and faulted. det and
// valiant must be acyclic everywhere (§4's claim for the code that runs)
// and every algorithm fault-free (MustBeAcyclic); every verdict is also
// pinned in testdata/cdg.golden, where the cyclic cells are known
// findings, not fixed: a routing change that moves one shows as a diff of
// that file. Run with -v for witnesses.
func TestRouteCDG(t *testing.T) {
	golden, err := os.ReadFile("testdata/cdg.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		cell, verdict, _ := strings.Cut(line, ": ")
		want[cell] = verdict
	}
	var got []string
	for _, spec := range []string{
		"torus:k=8,n=2", "torus:k=4,n=3", "torus:k=5,n=2", "mesh:k=8,n=2", "mesh:k=4,n=3", "hypercube:n=5",
	} {
		net, err := core.Config{Topology: spec}.BuildTopology()
		if err != nil {
			t.Fatal(err)
		}
		names, sets := faultSets(t, net)
		for _, info := range routing.Algorithms() {
			for i, fs := range sets {
				cell := fmt.Sprintf("%s %s %s", info.Name, spec, names[i])
				alg, err := routing.New(info.Name, net, fs, max(4, info.MinVFor(net)))
				if err != nil {
					t.Fatal(err)
				}
				g, err := Build(alg)
				if err != nil {
					t.Fatal(err)
				}
				verdict := "acyclic"
				if cyc := g.Cycle(); cyc != nil {
					verdict = fmt.Sprintf("cyclic %d", len(cyc)-1)
					t.Logf("%s: %v", cell, cyc)
					if MustBeAcyclic(info.Name, i == 0) {
						t.Errorf("%s must be acyclic, found %v", cell, cyc)
					}
				}
				got = append(got, cell+": "+verdict)
				if verdict != want[cell] {
					t.Errorf("%s: %s, testdata/cdg.golden says %q", cell, verdict, want[cell])
				}
			}
		}
	}
	if !testing.Short() && len(got) != len(want) {
		t.Errorf("testdata/cdg.golden has %d cells, the table %d", len(want), len(got))
	}
	if t.Failed() {
		slices.Sort(got)
		t.Logf("table as run:\n%s", strings.Join(got, "\n"))
	}
}
