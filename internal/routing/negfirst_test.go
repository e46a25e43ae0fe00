package routing

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/rng"
	"repro/internal/topology"
)

// TestNegativeFirstTurnOrder checks the defining turn-model invariant on a
// fault-free torus: along every walked path, no negative-direction hop
// ever follows a positive-direction hop, and paths stay minimal.
func TestNegativeFirstTurnOrder(t *testing.T) {
	tor := topology.New(6, 2)
	f := fault.NewSet(tor)
	alg, err := NewNegativeFirst(tor, f, 2)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < tor.Nodes(); s++ {
		for d := 0; d < tor.Nodes(); d++ {
			if s == d {
				continue
			}
			src, dst := topology.NodeID(s), topology.NodeID(d)
			m := message.New(0, src, dst, 4, tor.N(), alg.BaseMode(), 0)
			cur := src
			hops, seenPlus := 0, false
			for cur != dst {
				dec := alg.Route(cur, m)
				if dec.Outcome != Progress {
					t.Fatalf("%d->%d: unexpected outcome %v at %d", s, d, dec.Outcome, cur)
				}
				port := dec.Preferred[0].Port
				if port.Dir() == topology.Minus && seenPlus {
					t.Fatalf("%d->%d: negative hop after positive hop at %d", s, d, cur)
				}
				if port.Dir() == topology.Plus {
					seenPlus = true
				}
				if tor.WrapsAround(tor.Coord(cur, port.Dim()), port.Dir()) {
					m.Crossed[port.Dim()] = true
				}
				cur = tor.Neighbor(cur, port.Dim(), port.Dir())
				hops++
				if hops > tor.Nodes() {
					t.Fatalf("%d->%d: walk did not terminate", s, d)
				}
			}
			if want := tor.Distance(src, dst); hops != want {
				t.Fatalf("%d->%d: %d hops, minimal distance %d", s, d, hops, want)
			}
		}
	}
}

// TestNegativeFirstFaultFreeWalks drives the registry-level executable
// semantics: every pair delivered with zero software stops and minimal
// hop counts in a fault-free 8-ary 2-cube.
func TestNegativeFirstFaultFreeWalks(t *testing.T) {
	tor := topology.New(8, 2)
	f := fault.NewSet(tor)
	alg, err := New("negative-first", tor, f, 4)
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

// TestNegativeFirstFaultedWalks proves the SW-Based planner carries over:
// with random (connected) fault patterns, every healthy pair must still be
// delivered within the walker's budget — no livelock, no drops.
func TestNegativeFirstFaultedWalks(t *testing.T) {
	for _, seed := range []uint64{3, 11, 29} {
		tor := topology.New(8, 2)
		f, err := fault.Random(tor, 6, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		alg, err := New("negfirst", tor, f, 4) // alias on purpose
		if err != nil {
			t.Fatal(err)
		}
		rep := AnalyzeLivelock(alg, 8, 0)
		if rep.Undelivered != 0 {
			t.Fatalf("seed %d: undelivered pairs with faults: %v", seed, rep)
		}
	}
}
