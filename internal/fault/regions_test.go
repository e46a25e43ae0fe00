package fault

import (
	"testing"

	"repro/internal/topology"
)

func TestRegionsCoalesceAdjacent(t *testing.T) {
	tor := topology.New(8, 2)
	s := NewSet(tor)
	// Two clusters: a 2x1 pair and a distant singleton.
	a1 := tor.FromCoords([]int{1, 1})
	a2 := tor.FromCoords([]int{2, 1})
	b := tor.FromCoords([]int{6, 6})
	s.MarkNodes([]topology.NodeID{a1, a2, b})
	regs := s.Regions()
	if len(regs) != 2 {
		t.Fatalf("regions = %d, want 2", len(regs))
	}
	if regs[0].Size()+regs[1].Size() != 3 {
		t.Fatalf("region sizes wrong")
	}
	idx := NewIndex(s)
	if idx.Of(a1) != idx.Of(a2) {
		t.Error("adjacent faults in different regions")
	}
	if idx.Of(a1) == idx.Of(b) {
		t.Error("distant fault coalesced")
	}
	if idx.Of(tor.FromCoords([]int{0, 0})) != nil {
		t.Error("healthy node has a region")
	}
}

func TestRegionsCoalesceAcrossWrap(t *testing.T) {
	tor := topology.New(8, 2)
	s := NewSet(tor)
	// Nodes at x=7 and x=0 are adjacent through the wraparound edge.
	s.MarkNode(tor.FromCoords([]int{7, 4}))
	s.MarkNode(tor.FromCoords([]int{0, 4}))
	regs := s.Regions()
	if len(regs) != 1 {
		t.Fatalf("wraparound-adjacent faults not coalesced: %d regions", len(regs))
	}
	ext := regs[0].Extent(0)
	if !ext.Wraps {
		t.Fatalf("extent should wrap: %+v", ext)
	}
	if ext.Len(8) != 2 {
		t.Fatalf("extent len = %d, want 2", ext.Len(8))
	}
	if ext.Lo != 7 || ext.Hi != 0 {
		t.Fatalf("extent membership wrong: %+v", ext)
	}
}

func TestExtentNonWrapping(t *testing.T) {
	tor := topology.New(8, 2)
	s := NewSet(tor)
	for x := 2; x <= 5; x++ {
		s.MarkNode(tor.FromCoords([]int{x, 3}))
	}
	reg := s.Regions()[0]
	e0 := reg.Extent(0)
	if e0.Wraps || e0.Lo != 2 || e0.Hi != 5 || e0.Len(8) != 4 {
		t.Fatalf("extent dim0 = %+v", e0)
	}
	e1 := reg.Extent(1)
	if e1.Lo != 3 || e1.Hi != 3 || e1.Len(8) != 1 {
		t.Fatalf("extent dim1 = %+v", e1)
	}
}

func TestConvexClassification(t *testing.T) {
	tor := topology.New(8, 2)
	cases := []struct {
		spec   ShapeSpec
		convex bool
	}{
		{ShapeSpec{Shape: ShapeRect, A: 3, B: 2, AnchorA: 1, AnchorB: 1}, true},
		{ShapeSpec{Shape: ShapeBar, A: 4, AnchorA: 1, AnchorB: 1}, true},
		{ShapeSpec{Shape: ShapeL, A: 3, B: 3, AnchorA: 1, AnchorB: 1}, false},
		{ShapeSpec{Shape: ShapeU, A: 3, B: 4, AnchorA: 1, AnchorB: 1}, false},
		{ShapeSpec{Shape: ShapeT, A: 5, B: 2, AnchorA: 1, AnchorB: 1}, false},
		{ShapeSpec{Shape: ShapePlus, A: 5, B: 5, AnchorA: 1, AnchorB: 1}, false},
		{ShapeSpec{Shape: ShapeH, A: 5, B: 4, AnchorA: 1, AnchorB: 1}, false},
	}
	for _, tc := range cases {
		s := NewSet(tor)
		if _, err := StampShape(s, 0, 0, 1, tc.spec); err != nil {
			t.Fatalf("%v: %v", tc.spec.Shape, err)
		}
		regs := s.Regions()
		if len(regs) != 1 {
			t.Fatalf("%v: expected one region, got %d", tc.spec.Shape, len(regs))
		}
		if got := regs[0].Convex(); got != tc.convex {
			t.Errorf("%v: Convex() = %v, want %v", tc.spec.Shape, got, tc.convex)
		}
		if tc.spec.Shape.Concave() == tc.convex {
			t.Errorf("%v: Shape.Concave() inconsistent with geometry", tc.spec.Shape)
		}
	}
}

func TestDoubleBarIsTwoConvexRegions(t *testing.T) {
	tor := topology.New(8, 2)
	s := NewSet(tor)
	if _, err := StampShape(s, 0, 0, 1, ShapeSpec{Shape: ShapeDoubleBar, A: 3, AnchorA: 1, AnchorB: 1}); err != nil {
		t.Fatal(err)
	}
	regs := s.Regions()
	if len(regs) != 2 {
		t.Fatalf("double bar coalesced into %d regions, want 2", len(regs))
	}
	for _, r := range regs {
		if !r.Convex() {
			t.Error("bar region should be convex")
		}
	}
}

func TestIndexLookup(t *testing.T) {
	tor := topology.New(8, 2)
	s := NewSet(tor)
	nodes, err := StampShape(s, 0, 0, 1, ShapeSpec{Shape: ShapeU, A: 3, B: 4, AnchorA: 2, AnchorB: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(s)
	reg := ix.Of(nodes[0])
	if reg == nil || len(reg.Nodes) != len(nodes) {
		t.Fatalf("index region of %d = %v, want the %d-node U", nodes[0], reg, len(nodes))
	}
	for _, id := range nodes {
		if ix.Of(id) != reg {
			t.Fatalf("index lookup failed for %d", id)
		}
	}
	if ix.Of(tor.FromCoords([]int{7, 7})) != nil {
		t.Error("healthy node indexed")
	}
}

func TestPaperFig5SpecCounts(t *testing.T) {
	want := map[string]int{
		"rect-shaped": 20,
		"T-shaped":    10,
		"Plus-shaped": 16,
		"L-shaped":    9,
		"U-shaped":    8,
	}
	tor := topology.New(8, 2)
	for name, spec := range PaperFig5Specs() {
		n, err := spec.CellCount()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != want[name] {
			t.Errorf("%s: %d cells, paper says %d", name, n, want[name])
		}
		// Must stamp cleanly into the paper's 8-ary 2-cube and stay connected.
		s := NewSet(tor)
		if _, err := StampShape(s, 0, 0, 1, spec); err != nil {
			t.Errorf("%s: stamp failed: %v", name, err)
			continue
		}
		if s.NumNodeFaults() != n {
			t.Errorf("%s: stamped %d faults, want %d", name, s.NumNodeFaults(), n)
		}
		if s.Disconnects() {
			t.Errorf("%s: disconnects the 8-ary 2-cube", name)
		}
		convexWant := !spec.Shape.Concave()
		regs := s.Regions()
		if len(regs) != 1 {
			t.Errorf("%s: %d regions, want 1", name, len(regs))
			continue
		}
		if regs[0].Convex() != convexWant {
			t.Errorf("%s: convexity mismatch", name)
		}
	}
}

func TestShapeErrors(t *testing.T) {
	tor := topology.New(8, 2)
	s := NewSet(tor)
	bad := []ShapeSpec{
		{Shape: ShapeBar, A: 0},
		{Shape: ShapeRect, A: 0, B: 3},
		{Shape: ShapeL, A: 1, B: 3},
		{Shape: ShapeU, A: 2, B: 2},
		{Shape: ShapeT, A: 2, B: 1},
		{Shape: ShapePlus, A: 2, B: 5},
		{Shape: ShapeH, A: 2, B: 2},
		{Shape: Shape(99), A: 3, B: 3},
	}
	for _, sp := range bad {
		if _, err := StampShape(s, 0, 0, 1, sp); err == nil {
			t.Errorf("spec %+v did not error", sp)
		}
	}
	// Self-overlap after wraparound: bar longer than the ring.
	if _, err := StampShape(s, 0, 0, 1, ShapeSpec{Shape: ShapeBar, A: 9}); err == nil {
		t.Error("bar of 9 in k=8 ring did not error")
	}
}

func TestShapeStrings(t *testing.T) {
	for sh, want := range map[Shape]string{
		ShapeBar: "bar", ShapeRect: "rect", ShapeU: "U", ShapePlus: "plus",
	} {
		if sh.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(sh), sh.String(), want)
		}
	}
	if Shape(42).String() != "shape(42)" {
		t.Errorf("unknown shape string: %q", Shape(42).String())
	}
	// ParseShape inverts String for every shape, takes the one alias the
	// CLIs have always listed, and nothing else.
	for sh := ShapeBar; sh <= ShapeH; sh++ {
		if got, ok := ParseShape(sh.String()); !ok || got != sh {
			t.Errorf("ParseShape(%q) = %v, %v", sh.String(), got, ok)
		}
	}
	if got, ok := ParseShape("doublebar"); !ok || got != ShapeDoubleBar {
		t.Errorf("ParseShape(doublebar) = %v, %v", got, ok)
	}
	for _, bad := range []string{"", "Z", "shape(42)", "Bar"} {
		if _, ok := ParseShape(bad); ok {
			t.Errorf("ParseShape(%q) accepted", bad)
		}
	}
}
