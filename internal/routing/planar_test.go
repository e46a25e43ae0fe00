package routing

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/rng"
	"repro/internal/topology"
)

// TestPlanarAdaptiveTurnOrder checks the defining planar invariant on a
// fault-free mesh: every hop advances the lowest uncorrected dimension d0
// or the next uncorrected dimension d1 — never a dimension above the
// current plane — d1 hops ride the correct increasing/decreasing VC bank,
// and paths stay minimal.
func TestPlanarAdaptiveTurnOrder(t *testing.T) {
	msh := topology.NewMesh(4, 3)
	f := fault.NewSet(msh)
	alg, err := NewPlanarAdaptive(msh, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	firstHi, incHi := planarBanks(3)
	r := rng.New(7)
	for s := 0; s < msh.Nodes(); s++ {
		for d := 0; d < msh.Nodes(); d++ {
			if s == d {
				continue
			}
			src, dst := topology.NodeID(s), topology.NodeID(d)
			m := message.New(0, src, dst, 4, msh.N(), alg.BaseMode(), 0)
			cur := src
			hops := 0
			for cur != dst {
				d0, dir0, d1, _, ok := planarDims(msh, cur, dst)
				if !ok {
					t.Fatalf("%d->%d: planarDims failed before arrival at %d", s, d, cur)
				}
				dec := alg.Route(cur, m)
				if dec.Outcome != Progress {
					t.Fatalf("%d->%d: unexpected outcome %v at %d", s, d, dec.Outcome, cur)
				}
				c := dec.Preferred[r.Intn(len(dec.Preferred))]
				switch c.Port.Dim() {
				case d0:
					if c.VC >= firstHi {
						t.Fatalf("%d->%d: d0 hop on non-first bank VC %d", s, d, c.VC)
					}
				case d1:
					wantLo, wantHi := firstHi, incHi
					if dir0 == topology.Minus {
						wantLo, wantHi = incHi, 3
					}
					if c.VC < wantLo || c.VC >= wantHi {
						t.Fatalf("%d->%d: d1 hop (dir0 %v) on VC %d, want bank [%d,%d)",
							s, d, dir0, c.VC, wantLo, wantHi)
					}
				default:
					t.Fatalf("%d->%d: hop in dim %d outside plane (%d,%d)", s, d, c.Port.Dim(), d0, d1)
				}
				next := msh.Neighbor(cur, c.Port.Dim(), c.Port.Dir())
				if next < 0 {
					t.Fatalf("%d->%d: hop off the mesh edge at %d via %v", s, d, cur, c.Port)
				}
				if msh.Distance(next, dst) != msh.Distance(cur, dst)-1 {
					t.Fatalf("%d->%d: non-minimal hop at %d via %v", s, d, cur, c.Port)
				}
				cur = next
				hops++
				if hops > msh.Nodes() {
					t.Fatalf("%d->%d: walk did not terminate", s, d)
				}
			}
			if want := msh.Distance(src, dst); hops != want {
				t.Fatalf("%d->%d: %d hops, minimal distance %d", s, d, hops, want)
			}
		}
	}
}

// TestPlanarAdaptiveFaultFreeWalks drives the registry-level executable
// semantics: every pair delivered with zero software stops and minimal hop
// counts in a fault-free 8x8 mesh.
func TestPlanarAdaptiveFaultFreeWalks(t *testing.T) {
	msh := topology.NewMesh(8, 2)
	f := fault.NewSet(msh)
	alg, err := New("planar-adaptive", msh, f, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeLivelock(alg, 8, 0)
	if rep.Undelivered != 0 {
		t.Fatalf("fault-free undelivered pairs: %v", rep)
	}
	if rep.MaxStops != 0 {
		t.Fatalf("fault-free software stops: %v", rep)
	}
}

// TestPlanarAdaptiveFaultedWalks proves the SW-Based planner carries over
// to the mesh: with random (connected) fault patterns, every healthy pair
// must still be delivered within the walker's budget — no livelock, no
// drops, and no wraparound shortcuts to lean on.
func TestPlanarAdaptiveFaultedWalks(t *testing.T) {
	for _, seed := range []uint64{3, 11, 29} {
		msh := topology.NewMesh(8, 2)
		f, err := fault.Random(msh, 5, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		alg, err := New("planar", msh, f, 4) // alias on purpose
		if err != nil {
			t.Fatal(err)
		}
		rep := AnalyzeLivelock(alg, 8, 0)
		if rep.Undelivered != 0 {
			t.Fatalf("seed %d: undelivered pairs with faults: %v", seed, rep)
		}
	}
}

// TestPlanarAdaptiveRejectsTorus pins the declared topology support: both
// the constructor and the registry must refuse wrapping networks.
func TestPlanarAdaptiveRejectsTorus(t *testing.T) {
	tor := topology.New(8, 2)
	f := fault.NewSet(tor)
	if _, err := NewPlanarAdaptive(tor, f, 4); err == nil {
		t.Fatal("constructor accepted a torus")
	}
	if _, err := New("planar-adaptive", tor, f, 4); err == nil {
		t.Fatal("registry accepted a torus")
	}
}
