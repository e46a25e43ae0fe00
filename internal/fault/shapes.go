package fault

import (
	"fmt"

	"repro/internal/topology"
)

// Shape identifies one of the coalesced fault-region silhouettes of Fig. 1
// and Fig. 5 of the paper. Shapes are stamped into a 2-D plane of the torus
// (dimension pair of the caller's choosing); the bar/box family is convex,
// the letter family concave.
type Shape int

const (
	// ShapeBar is a 1×L |-shaped bar (convex).
	ShapeBar Shape = iota
	// ShapeDoubleBar is two parallel bars separated by one healthy column
	// (||-shaped; each bar is its own convex region).
	ShapeDoubleBar
	// ShapeRect is a solid W×H block (□-shaped, convex).
	ShapeRect
	// ShapeL is an L: vertical arm plus horizontal arm (concave).
	ShapeL
	// ShapeU is a U: two vertical arms joined by a bottom bar (concave).
	ShapeU
	// ShapeT is a T: horizontal top bar with a centred vertical stem (concave).
	ShapeT
	// ShapePlus is a +: crossing horizontal and vertical bars (concave).
	ShapePlus
	// ShapeH is an H: two vertical bars joined by a middle rung (concave).
	ShapeH
)

// shapeNames is the one shape-name table: String reads it forwards,
// ParseShape backwards.
var shapeNames = [...]string{
	ShapeBar:       "bar",
	ShapeDoubleBar: "double-bar",
	ShapeRect:      "rect",
	ShapeL:         "L",
	ShapeU:         "U",
	ShapeT:         "T",
	ShapePlus:      "plus",
	ShapeH:         "H",
}

func (s Shape) String() string {
	if s >= 0 && int(s) < len(shapeNames) {
		return shapeNames[s]
	}
	return fmt.Sprintf("shape(%d)", int(s))
}

// ParseShape is the inverse of Shape.String; "doublebar" is accepted as an
// alias of "double-bar".
func ParseShape(name string) (Shape, bool) {
	if name == "doublebar" {
		name = "double-bar"
	}
	for s, n := range shapeNames {
		if n == name {
			return Shape(s), true
		}
	}
	return 0, false
}

// Concave reports whether the silhouette is concave (U/+/T/H/L) rather than
// convex (bar/double-bar/rect), per §3's classification.
func (s Shape) Concave() bool {
	switch s {
	case ShapeL, ShapeU, ShapeT, ShapePlus, ShapeH:
		return true
	}
	return false
}

// ShapeSpec describes a concrete stamping of a shape: silhouette, size
// parameters A and B (meaning depends on the shape, see StampShape), the
// plane to stamp into, and the anchor coordinates (the minimum corner of the
// silhouette's bounding box within the plane).
type ShapeSpec struct {
	Shape            Shape
	A, B             int
	AnchorA, AnchorB int
	// T is the bar thickness for ShapePlus (0 or 1 = the classic one-node-
	// wide cross). Thickness lets large-nf crosses fit small radixes: the
	// paper's Fig. 5 uses a 16-node plus inside an 8×8 plane, realised here
	// as a 2-thick 5×5 cross.
	T int
}

// cells enumerates a silhouette as (a, b) offsets from the anchor. Offsets
// stay small relative to k so the stamped region never self-wraps.
func (sp ShapeSpec) cells() ([][2]int, error) {
	a, b := sp.A, sp.B
	bad := func(cond bool, form string, args ...any) error {
		if cond {
			return fmt.Errorf("fault: invalid %v shape: "+form, append([]any{sp.Shape}, args...)...)
		}
		return nil
	}
	var out [][2]int
	add := func(x, y int) { out = append(out, [2]int{x, y}) }
	switch sp.Shape {
	case ShapeBar: // A = length (vertical bar of height A)
		if err := bad(a < 1, "length %d", a); err != nil {
			return nil, err
		}
		for i := 0; i < a; i++ {
			add(0, i)
		}
	case ShapeDoubleBar: // A = length of each bar, gap of one column
		if err := bad(a < 1, "length %d", a); err != nil {
			return nil, err
		}
		for i := 0; i < a; i++ {
			add(0, i)
			add(2, i)
		}
	case ShapeRect: // A×B solid block
		if err := bad(a < 1 || b < 1, "size %dx%d", a, b); err != nil {
			return nil, err
		}
		for x := 0; x < a; x++ {
			for y := 0; y < b; y++ {
				add(x, y)
			}
		}
	case ShapeL: // vertical arm height A, horizontal arm width B, sharing the corner
		if err := bad(a < 2 || b < 2, "arms %dx%d", a, b); err != nil {
			return nil, err
		}
		for y := 0; y < a; y++ {
			add(0, y)
		}
		for x := 1; x < b; x++ {
			add(x, 0)
		}
	case ShapeU: // two vertical arms height A, bottom bar width B (>= 2 columns apart)
		if err := bad(a < 2 || b < 3, "arms height %d, width %d", a, b); err != nil {
			return nil, err
		}
		for x := 0; x < b; x++ {
			add(x, 0)
		}
		for y := 1; y < a; y++ {
			add(0, y)
			add(b-1, y)
		}
	case ShapeT: // top bar width A (odd preferred), stem height B below the centre
		if err := bad(a < 3 || b < 1, "bar %d, stem %d", a, b); err != nil {
			return nil, err
		}
		for x := 0; x < a; x++ {
			add(x, b)
		}
		mid := a / 2
		for y := 0; y < b; y++ {
			add(mid, y)
		}
	case ShapePlus: // horizontal bar width A, vertical bar height B, thickness T, crossing at centres
		th := sp.T
		if th < 1 {
			th = 1
		}
		if err := bad(a < 3 || b < 3 || th > a-2 || th > b-2, "bars %dx%d thickness %d", a, b, th); err != nil {
			return nil, err
		}
		cy := (b - th) / 2
		cx := (a - th) / 2
		seen := make(map[[2]int]bool)
		dedupAdd := func(x, y int) {
			if !seen[[2]int{x, y}] {
				seen[[2]int{x, y}] = true
				add(x, y)
			}
		}
		for x := 0; x < a; x++ {
			for dy := 0; dy < th; dy++ {
				dedupAdd(x, cy+dy)
			}
		}
		for y := 0; y < b; y++ {
			for dx := 0; dx < th; dx++ {
				dedupAdd(cx+dx, y)
			}
		}
	case ShapeH: // two vertical bars height A, middle rung width B between them
		if err := bad(a < 3 || b < 3, "bars height %d, rung span %d", a, b); err != nil {
			return nil, err
		}
		for y := 0; y < a; y++ {
			add(0, y)
			add(b-1, y)
		}
		ry := a / 2
		for x := 1; x < b-1; x++ {
			add(x, ry)
		}
	default:
		return nil, fmt.Errorf("fault: unknown shape %v", sp.Shape)
	}
	return out, nil
}

// CellCount returns the number of faulty nodes the spec stamps (the paper's
// nf for region experiments), without touching a torus.
func (sp ShapeSpec) CellCount() (int, error) {
	cs, err := sp.cells()
	if err != nil {
		return 0, err
	}
	return len(cs), nil
}

// StampShape marks the silhouette into the fault set, within the plane
// spanned by (dimA, dimB) through base. The plane dimensions must be
// distinct and inside the network's dimensionality, and base a valid node.
// On wrapping topologies (torus) coordinates are taken mod k; on meshes,
// where relocating an overflowing cell across the missing wraparound edge
// would tear the region apart, the silhouette must fit inside [0, k) along
// both axes. It returns the stamped nodes, or an error for invalid
// parameters, a silhouette that self-overlaps after wrapping (shape larger
// than the ring), or one that does not fit the selected topology.
func StampShape(s *Set, base topology.NodeID, dimA, dimB int, sp ShapeSpec) ([]topology.NodeID, error) {
	cs, err := sp.cells()
	if err != nil {
		return nil, err
	}
	t := s.Net()
	if dimA < 0 || dimA >= t.N() || dimB < 0 || dimB >= t.N() {
		return nil, fmt.Errorf("fault: shape plane (%d,%d) out of range for %s", dimA, dimB, t)
	}
	if dimA == dimB {
		return nil, fmt.Errorf("fault: shape plane requires two distinct dimensions, got (%d,%d)", dimA, dimB)
	}
	if !t.Valid(base) {
		return nil, fmt.Errorf("fault: shape base node %d out of range [0,%d)", base, t.Nodes())
	}
	pl := topology.PlaneOf(t, base, dimA, dimB)
	seen := make(map[topology.NodeID]bool, len(cs))
	out := make([]topology.NodeID, 0, len(cs))
	for _, c := range cs {
		a, b := sp.AnchorA+c[0], sp.AnchorB+c[1]
		if !t.Wraps() && (a < 0 || a >= t.K() || b < 0 || b >= t.K()) {
			return nil, fmt.Errorf("fault: shape %v at (%d,%d) does not fit %s (cell (%d,%d) outside [0,%d))",
				sp.Shape, sp.AnchorA, sp.AnchorB, t, a, b, t.K())
		}
		id := pl.Node(a%t.K(), b%t.K())
		if seen[id] {
			return nil, fmt.Errorf("fault: shape %v at (%d,%d) self-overlaps after wraparound (k=%d)",
				sp.Shape, sp.AnchorA, sp.AnchorB, t.K())
		}
		seen[id] = true
		out = append(out, id)
	}
	s.MarkNodes(out)
	return out, nil
}

// PaperFig5Specs returns the five fault-region configurations evaluated in
// Fig. 5 of the paper with their exact faulty-node counts:
// rect-shaped nf=20, T-shaped nf=10, +-shaped nf=16, L-shaped nf=9,
// U-shaped nf=8.
func PaperFig5Specs() map[string]ShapeSpec {
	return map[string]ShapeSpec{
		"rect-shaped": {Shape: ShapeRect, A: 5, B: 4, AnchorA: 2, AnchorB: 2},       // 20
		"T-shaped":    {Shape: ShapeT, A: 7, B: 3, AnchorA: 1, AnchorB: 2},          // 7 + 3 = 10
		"Plus-shaped": {Shape: ShapePlus, A: 5, B: 5, T: 2, AnchorA: 1, AnchorB: 1}, // 5*2 + 5*2 - 4 = 16
		"L-shaped":    {Shape: ShapeL, A: 5, B: 5, AnchorA: 2, AnchorB: 2},          // 5 + 4 = 9
		"U-shaped":    {Shape: ShapeU, A: 3, B: 4, AnchorA: 2, AnchorB: 2},          // 4 + 2*2 = 8
	}
}

// PaperFig5Shape looks a Fig. 5 region up by the short name the CLIs take
// (rect|T|plus|L|U).
func PaperFig5Shape(short string) (ShapeSpec, bool) {
	spec, ok := PaperFig5Specs()[map[string]string{
		"rect": "rect-shaped", "T": "T-shaped", "plus": "Plus-shaped", "L": "L-shaped", "U": "U-shaped",
	}[short]]
	return spec, ok
}
