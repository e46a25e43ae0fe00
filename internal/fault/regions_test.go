package fault

import (
	"strings"
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

// TestFig5SpecCounts: a bare Fig. 5 name is the paper's region, with the
// paper's faulty-node count.
func TestFig5SpecCounts(t *testing.T) {
	want := map[string]int{"rect": 20, "T": 10, "plus": 16, "L": 9, "U": 8}
	tor := topology.New(8, 2)
	for name := range want {
		spec, err := ParseShapeSpec(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
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
	// ParseShapeSpec inverts String for every shape, takes the one alias
	// the CLIs have always listed, and nothing else.
	for sh := ShapeBar; sh <= ShapeH; sh++ {
		if got, err := ParseShapeSpec(sh.String() + ":a=4,b=4"); err != nil || got.Shape != sh {
			t.Errorf("ParseShapeSpec(%q) = %v, %v", sh.String(), got.Shape, err)
		}
	}
	if got, err := ParseShapeSpec("doublebar:a=4"); err != nil || got.Shape != ShapeDoubleBar {
		t.Errorf("ParseShapeSpec(doublebar) = %v, %v", got.Shape, err)
	}
	for _, bad := range []string{"", "Z", "shape(42)", "Bar", "xdoublebar", "doublebarx"} {
		if _, err := ParseShapeSpec(bad + ":a=4,b=4"); err == nil || !strings.Contains(err.Error(), "unknown shape") {
			t.Errorf("ParseShapeSpec(%q) error %v, want unknown shape", bad, err)
		}
	}
}

// TestParseShapeSpec pins the fault-region grammar: Shape's names, a bare
// Fig. 5 name as the paper's region with keys overriding it, the other
// shapes at anchor (2,2) with no size, and sizes checked at parse time.
func TestParseShapeSpec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ShapeSpec
	}{
		{"U", ShapeSpec{Shape: ShapeU, A: 3, B: 4, AnchorA: 2, AnchorB: 2}},
		{"plus:a=7", ShapeSpec{Shape: ShapePlus, A: 7, B: 5, T: 2, AnchorA: 1, AnchorB: 1}},
		{"doublebar:a=4", ShapeSpec{Shape: ShapeDoubleBar, A: 4, AnchorA: 2, AnchorB: 2}},
		{"double-bar:a=4", ShapeSpec{Shape: ShapeDoubleBar, A: 4, AnchorA: 2, AnchorB: 2}},
		{" T:a=5, b=3 ,ax=2", ShapeSpec{Shape: ShapeT, A: 5, B: 3, AnchorA: 2, AnchorB: 2}},
		{"H:a=5,b=5,ax=0,ay=3", ShapeSpec{Shape: ShapeH, A: 5, B: 5, AnchorA: 0, AnchorB: 3}},
		{"bar:a=1073741824", ShapeSpec{Shape: ShapeBar, A: 1 << 30, AnchorA: 2, AnchorB: 2}},
	} {
		if got, err := ParseShapeSpec(tc.in); err != nil || got != tc.want {
			t.Errorf("ParseShapeSpec(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	for in, want := range map[string]string{
		"Z":          `fault: unknown shape "Z" (bar|double-bar|rect|L|U|T|plus|H)`,
		"u":          `fault: unknown shape "u"`,
		"bar":        "fault: invalid bar shape: length 0",
		"H":          "fault: invalid H shape: bars height 0, rung span 0",
		"plus:t=4":   "fault: invalid plus shape: bars 5x5 thickness 4",
		"U:":         "empty parameter list",
		"U:c=1":      `fault: spec "U:c=1": unknown parameter "c" (accepted: a, b, t, ax, ay)`,
		"U:a=x":      `parameter a="x" is not an integer`,
		"U:ax=-1":    "parameter ax must be >= 0, got -1",
		"U:a=3,a=4":  `duplicate parameter "a"`,
		"rect:a=0,b": "bad parameter",
	} {
		if _, err := ParseShapeSpec(in); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseShapeSpec(%q) error %v, want it to contain %q", in, err, want)
		}
	}
}

// FuzzShapeSpec: no input panics the grammar or the stamp, and a spec that
// stamps on the paper's 8-ary 2-cube fails CellCount nodes. An accepted
// spec's sizes are unbounded, so StampShape must refuse an oversized one
// without enumerating it (the last seed).
func FuzzShapeSpec(f *testing.F) {
	for _, s := range []string{
		"bar", "double-bar", "doublebar", "rect", "L", "U", "T", "plus", "H",
		"bar:a=4", "double-bar:a=4", "rect:a=3,b=3", "L:a=4,b=4", "U:a=4,b=5", // cmd/figures' Fig. 1
		"plus:a=5,b=5,t=1,ax=2,ay=2", "T:a=5,b=3,ax=2", "H:a=5,b=5",
		"bar:a=1073741824",
	} {
		f.Add(s)
	}
	tor := topology.New(8, 2)
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseShapeSpec(s)
		if err != nil {
			return
		}
		fs := NewSet(tor)
		nodes, err := StampShape(fs, 0, 0, 1, sp)
		if err != nil {
			return
		}
		if n, err := sp.CellCount(); err != nil || n != len(nodes) || fs.NumNodeFaults() != n {
			t.Fatalf("%q stamped %d nodes (%d faults); CellCount %d, %v", s, len(nodes), fs.NumNodeFaults(), n, err)
		}
	})
}
