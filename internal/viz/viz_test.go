package viz

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/topology"
)

func TestRenderPlaneMarksFaults(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	fs.MarkNode(tor.FromCoords([]int{2, 3}))
	out := RenderPlane(fs)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 9 { // header + 8 rows
		t.Fatalf("line count = %d", len(lines))
	}
	if strings.Count(out, "#") != 1 {
		t.Fatalf("hash count = %d, want 1", strings.Count(out, "#"))
	}
	// Row for y=3 (index 4 with header) must contain the fault at column 2.
	row := lines[4]
	cells := strings.Fields(strings.TrimPrefix(row, "     "))
	if cells[2] != "#" {
		t.Fatalf("fault not at x=2 in row %q", row)
	}
}

func TestRenderPlaneHigherDims(t *testing.T) {
	tor := topology.New(4, 3)
	fs := fault.NewSet(tor)
	fs.MarkNode(tor.FromCoords([]int{1, 1, 0}))
	fs.MarkNode(tor.FromCoords([]int{1, 1, 2})) // different plane: invisible
	out := RenderPlane(fs)
	if strings.Count(out, "#") != 1 {
		t.Fatalf("plane slicing broken:\n%s", out)
	}
}

func TestRenderRegions(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	if _, err := fault.StampShape(fs, 0, 0, 1, fault.ShapeSpec{Shape: fault.ShapeU, A: 3, B: 4, AnchorA: 1, AnchorB: 1}); err != nil {
		t.Fatal(err)
	}
	out := RenderRegions(fs)
	if !strings.Contains(out, "concave") {
		t.Fatalf("U region not classified concave:\n%s", out)
	}
	if !strings.Contains(out, "8 nodes") {
		t.Fatalf("region size missing:\n%s", out)
	}
	empty := RenderRegions(fault.NewSet(tor))
	if !strings.Contains(empty, "no fault regions") {
		t.Fatal("empty render wrong")
	}
}
