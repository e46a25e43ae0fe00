package routing

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/rng"
	"repro/internal/topology"
)

// The regression scenario behind the T2 corner-via rule: faults at (7,1)
// and (7,4) block column x=7 in both ring directions. A message crossing
// that column vertically must sidestep AND ride past the region before
// returning, or e-cube order walks it straight back (ping-pong).
func TestT2CornerViaNoPingPong(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	fs.MarkNode(tor.FromCoords([]int{7, 1}))
	fs.MarkNode(tor.FromCoords([]int{7, 4}))
	fs.MarkNode(tor.FromCoords([]int{2, 4}))
	a := mustDet(t, tor, fs, 4)
	src := tor.FromCoords([]int{5, 6})
	dst := tor.FromCoords([]int{7, 3})
	m := message.New(1, src, dst, 64, 2, message.Deterministic, 0)
	_, stops, ok := walk(t, a, m, 2000)
	if !ok {
		t.Fatal("not delivered")
	}
	if stops > 5 {
		t.Fatalf("message needed %d software stops; the corner via should "+
			"resolve this in a handful", stops)
	}
}

// Blocked in the plane's second dimension (d=1, partner o=0): the installed
// via must advance past the region in dimension 1, not merely sidestep in
// dimension 0.
func TestOrthoDetourAdvancesPastRegionInBlockedDim(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	blocker := tor.FromCoords([]int{3, 4})
	fs.MarkNode(blocker)
	a := mustDet(t, tor, fs, 4)
	cur := tor.FromCoords([]int{3, 3})
	dst := tor.FromCoords([]int{3, 6})
	m := message.New(1, cur, dst, 8, 2, message.Deterministic, 0)
	// Force the T2 path: pretend dimension 1 was already reversed.
	m.Reversed[1] = true
	if !a.Plan(cur, m, 1, topology.Plus) {
		t.Fatal("plan failed")
	}
	if len(m.Via) == 0 {
		t.Fatal("no via installed")
	}
	via := m.Target()
	// Via must clear x=3 (region extent in dim0 is [3,3]) and sit past y=4
	// in dim 1 (region extent [4,4] -> y=5).
	vx, vy := tor.Coord(via, 0), tor.Coord(via, 1)
	if vx == 3 {
		t.Errorf("via x=%d does not clear the region column", vx)
	}
	if vy != 5 {
		t.Errorf("via y=%d, want 5 (just past the region in the blocked dim)", vy)
	}
	if _, stops, ok := walk(t, a, m, 500); !ok || stops > 3 {
		t.Fatalf("delivery failed or ping-ponged (ok=%v stops=%d)", ok, stops)
	}
}

// Blocked in the plane's first dimension (d=0, partner o=1): the classic
// sidestep via keeps the current dim-0 coordinate.
func TestOrthoDetourSidestepInFirstDim(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	fs.MarkNode(tor.FromCoords([]int{4, 3}))
	a := mustDet(t, tor, fs, 4)
	cur := tor.FromCoords([]int{3, 3})
	dst := tor.FromCoords([]int{6, 3})
	m := message.New(1, cur, dst, 8, 2, message.Deterministic, 0)
	m.Reversed[0] = true
	if !a.Plan(cur, m, 0, topology.Plus) {
		t.Fatal("plan failed")
	}
	via := m.Target()
	if tor.Coord(via, 0) != 3 {
		t.Errorf("via x=%d, want unchanged 3", tor.Coord(via, 0))
	}
	if y := tor.Coord(via, 1); y != 2 && y != 4 {
		t.Errorf("via y=%d, want 2 or 4 (one row off the region)", y)
	}
}

// Link faults (no node failures): T2's pure-link branch sizes the detour
// from the blocking endpoint alone.
func TestPlanAroundLinkFault(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	src := tor.FromCoords([]int{2, 2})
	fs.MarkLink(src, topology.PortFor(0, topology.Plus))
	fs.MarkLink(src, topology.PortFor(0, topology.Minus))
	a := mustDet(t, tor, fs, 4)
	dst := tor.FromCoords([]int{5, 2})
	m := message.New(1, src, dst, 8, 2, message.Deterministic, 0)
	_, _, ok := walk(t, a, m, 500)
	if !ok {
		t.Fatal("message not delivered around link faults")
	}
}

// Escalation override: with SetEscalation(1) every second absorption uses
// the exact planner, so even hostile patterns deliver within tight step
// bounds.
func TestEscalationOverride(t *testing.T) {
	tor := topology.New(8, 2)
	fs, err := fault.Random(tor, 10, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	a := mustDet(t, tor, fs, 4)
	a.SetEscalation(1)
	healthy := fs.HealthyNodes()
	r := rng.New(6)
	for i := 0; i < 60; i++ {
		src := healthy[r.Intn(len(healthy))]
		dst := healthy[r.Intn(len(healthy))]
		if src == dst {
			continue
		}
		m := message.New(uint64(i), src, dst, 16, 2, message.Deterministic, 0)
		_, stops, ok := walk(t, a, m, 1500)
		if !ok {
			t.Fatalf("not delivered with escalation=1 (src=%v dst=%v)",
				tor.Coords(src), tor.Coords(dst))
		}
		if stops > 12 {
			t.Fatalf("escalation=1 allowed %d stops", stops)
		}
	}
}

// One-dimensional tori have no orthogonal partner: only reversal and the
// exact planner apply, and delivery must still be guaranteed.
func TestOneDimensionalTorus(t *testing.T) {
	tor := topology.New(8, 1)
	fs := fault.NewSet(tor)
	fs.MarkNode(3)
	a := mustDet(t, tor, fs, 4)
	m := message.New(1, 1, 5, 8, 1, message.Deterministic, 0)
	_, _, ok := walk(t, a, m, 200)
	if !ok {
		t.Fatal("1-D reversal failed")
	}
}

// Small odd radix: exercises ring arithmetic away from the power-of-two
// comfort zone.
func TestOddRadixDelivery(t *testing.T) {
	tor := topology.New(5, 2)
	fs, err := fault.Random(tor, 3, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, adaptive := range []bool{false, true} {
		var a *Algorithm
		if adaptive {
			a = mustAdap(t, tor, fs, 3)
		} else {
			a = mustDet(t, tor, fs, 2)
		}
		healthy := fs.HealthyNodes()
		r := rng.New(9)
		mode := message.Deterministic
		if adaptive {
			mode = message.Adaptive
		}
		for i := 0; i < 40; i++ {
			src := healthy[r.Intn(len(healthy))]
			dst := healthy[r.Intn(len(healthy))]
			if src == dst {
				continue
			}
			m := message.New(uint64(i), src, dst, 4, 2, mode, 0)
			if _, _, ok := walk(t, a, m, 1000); !ok {
				t.Fatalf("k=5 delivery failed (adaptive=%v)", adaptive)
			}
		}
	}
}

// On a 2-ary dimension both ports lead to the same neighbour, over two
// distinct channels. T2's segment check must ask about the channel the
// walk actually takes — the one Route will ask about — not its twin.
func TestSegmentClearTwinChannels(t *testing.T) {
	tor := topology.New(2, 2)
	fs := fault.NewSet(tor)
	fs.MarkLink(0, topology.PortFor(0, topology.Minus)) // only (0, d0−) and its pair (1, d0+)
	p := mustDet(t, tor, fs, 4).planner
	for _, tc := range []struct {
		name string
		dir  topology.Dir
		want bool
	}{
		{"through d0-", topology.Minus, false},
		{"through d0+", topology.Plus, true},
	} {
		var override [message.MaxDims]topology.Dir
		override[0] = tc.dir
		if got := p.segmentClear(0, 1, &override); got != tc.want {
			t.Errorf("segment 0 -> 1 %s: clear = %v, want %v", tc.name, got, tc.want)
		}
	}

	// The same twin through Plan: a message at node 0 whose dimension-0
	// direction was reversed to Minus is blocked in dimension 1 with that
	// dimension already reversed, so T2 proposes the via (1,0), reached
	// through (0, d0−). The detour Plan installs must not absorb at once.
	m := message.New(1, 0, 3, 8, 2, message.Deterministic, 0)
	m.Reversed[0], m.DirOverride[0] = true, topology.Minus
	m.Reversed[1] = true
	a := mustDet(t, tor, fs, 4)
	if !a.Plan(0, m, 1, topology.Plus) {
		t.Fatal("plan failed")
	}
	if dec := a.Route(0, m); dec.Outcome == AbsorbFault {
		t.Fatalf("the planned route blocks at once on (%d, %v) toward %d", dec.BlockedDim, dec.BlockedDir, m.Target())
	}
	if _, stops, ok := walk(t, a, m, 100); !ok || stops > 2 {
		t.Fatalf("delivery failed or needed extra stops (ok=%v stops=%d)", ok, stops)
	}
}

// TestSegmentClear carries over the node cases of the deleted
// PathFaultFree test: a segment through a failed node is rejected, a clean
// one accepted, and a walk cannot start from a failed node.
func TestSegmentClear(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	mid := tor.FromCoords([]int{2, 0})
	fs.MarkNode(mid)
	p := mustDet(t, tor, fs, 4).planner
	src := tor.FromCoords([]int{0, 0})
	if p.segmentClear(src, tor.FromCoords([]int{4, 0}), nil) {
		t.Error("segment through a failed node reported clear")
	}
	if !p.segmentClear(src, tor.FromCoords([]int{0, 4}), nil) {
		t.Error("clean segment reported blocked")
	}
	if p.segmentClear(mid, tor.FromCoords([]int{3, 0}), nil) {
		t.Error("segment leaving a failed node reported clear")
	}
}
