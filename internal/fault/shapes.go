package fault

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/registry"
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
// ParseShapeSpec backwards.
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

// check refuses sizes that make no silhouette.
func (sp ShapeSpec) check() error {
	a, b, th := sp.A, sp.B, max(sp.T, 1)
	ok, form, sizes := false, "", []any{a, b}
	switch sp.Shape {
	case ShapeBar, ShapeDoubleBar:
		ok, form, sizes = a >= 1, "length %d", sizes[:1]
	case ShapeRect:
		ok, form = a >= 1 && b >= 1, "size %dx%d"
	case ShapeL:
		ok, form = a >= 2 && b >= 2, "arms %dx%d"
	case ShapeU:
		ok, form = a >= 2 && b >= 3, "arms height %d, width %d"
	case ShapeT:
		ok, form = a >= 3 && b >= 1, "bar %d, stem %d"
	case ShapePlus:
		ok, form, sizes = a >= 3 && b >= 3 && th <= a-2 && th <= b-2, "bars %dx%d thickness %d", append(sizes, th)
	case ShapeH:
		ok, form = a >= 3 && b >= 3, "bars height %d, rung span %d"
	default:
		return fmt.Errorf("fault: unknown shape %v", sp.Shape)
	}
	if !ok {
		return fmt.Errorf("fault: invalid %v shape: "+form, append([]any{sp.Shape}, sizes...)...)
	}
	return nil
}

// cells hands yield the silhouette of checked sizes as (a, b) offsets from
// the anchor until it returns false. Every loop step yields a cell or skips
// a run, so a caller that stops at the first overlapping or misplaced cell
// does work bounded by its plane, however large the sizes.
func (sp ShapeSpec) cells(yield func(a, b int) bool) {
	a, b, more := sp.A, sp.B, true
	add := func(x, y int) { more = more && yield(x, y) }
	switch sp.Shape {
	case ShapeBar: // A = length (vertical bar of height A)
		for i := 0; i < a && more; i++ {
			add(0, i)
		}
	case ShapeDoubleBar: // A = length of each bar, gap of one column
		for i := 0; i < a && more; i++ {
			add(0, i)
			add(2, i)
		}
	case ShapeRect: // A×B solid block
		for x := 0; x < a && more; x++ {
			for y := 0; y < b && more; y++ {
				add(x, y)
			}
		}
	case ShapeL: // vertical arm height A, horizontal arm width B, sharing the corner
		for y := 0; y < a && more; y++ {
			add(0, y)
		}
		for x := 1; x < b && more; x++ {
			add(x, 0)
		}
	case ShapeU: // two vertical arms height A, bottom bar width B (>= 2 columns apart)
		for x := 0; x < b && more; x++ {
			add(x, 0)
		}
		for y := 1; y < a && more; y++ {
			add(0, y)
			add(b-1, y)
		}
	case ShapeT: // top bar width A (odd preferred), stem height B below the centre
		for x := 0; x < a && more; x++ {
			add(x, b)
		}
		mid := a / 2
		for y := 0; y < b && more; y++ {
			add(mid, y)
		}
	case ShapePlus: // horizontal bar width A, vertical bar height B, thickness T, crossing at centres
		th := max(sp.T, 1)
		cx, cy := (a-th)/2, (b-th)/2
		for x := 0; x < a && more; x++ {
			for dy := 0; dy < th && more; dy++ {
				add(x, cy+dy)
			}
		}
		for y := 0; y < b && more; y++ {
			if y == cy {
				y += th - 1 // the crossing: the horizontal bar stamped it
				continue
			}
			for dx := 0; dx < th && more; dx++ {
				add(cx+dx, y)
			}
		}
	case ShapeH: // two vertical bars height A, middle rung width B between them
		for y := 0; y < a && more; y++ {
			add(0, y)
			add(b-1, y)
		}
		ry := a / 2
		for x := 1; x < b-1 && more; x++ {
			add(x, ry)
		}
	}
}

// CellCount returns the number of faulty nodes the spec stamps (the paper's
// nf for region experiments), without touching a torus.
func (sp ShapeSpec) CellCount() (int, error) {
	if err := sp.check(); err != nil {
		return 0, err
	}
	n := 0
	sp.cells(func(int, int) bool { n++; return true })
	return n, nil
}

// StampShape marks the silhouette into the fault set, within the plane
// spanned by (dimA, dimB) through base. The plane dimensions must be
// distinct and inside the network's dimensionality, base a valid node and
// the anchor non-negative. On wrapping topologies (torus) coordinates are
// taken mod k; on meshes, where relocating an overflowing cell across the
// missing wraparound edge would tear the region apart, the silhouette must
// fit inside [0, k) along both axes. It returns the stamped nodes, or an
// error for invalid parameters, a silhouette that self-overlaps after
// wrapping (shape larger than the ring), or one that does not fit the
// selected topology, found by its (k²+1)-th cell at the latest.
func StampShape(s *Set, base topology.NodeID, dimA, dimB int, sp ShapeSpec) ([]topology.NodeID, error) {
	if err := sp.check(); err != nil {
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
	if sp.AnchorA < 0 || sp.AnchorB < 0 {
		return nil, fmt.Errorf("fault: shape %v anchor (%d,%d) is negative", sp.Shape, sp.AnchorA, sp.AnchorB)
	}
	k := t.K()
	pl := topology.PlaneOf(t, base, dimA, dimB)
	seen := make(map[topology.NodeID]bool)
	var out []topology.NodeID
	var err error
	sp.cells(func(x, y int) bool {
		if !t.Wraps() && (x >= k-sp.AnchorA || y >= k-sp.AnchorB) {
			err = fmt.Errorf("fault: shape %v at (%d,%d) does not fit %s (cell (%d,%d) outside [0,%d))",
				sp.Shape, sp.AnchorA, sp.AnchorB, t, sp.AnchorA+x, sp.AnchorB+y, k)
			return false
		}
		id := pl.Node((sp.AnchorA%k+x%k)%k, (sp.AnchorB%k+y%k)%k)
		if seen[id] {
			err = fmt.Errorf("fault: shape %v at (%d,%d) self-overlaps after wraparound (k=%d)",
				sp.Shape, sp.AnchorA, sp.AnchorB, k)
			return false
		}
		seen[id] = true
		out = append(out, id)
		return true
	})
	if err != nil {
		return nil, err
	}
	s.MarkNodes(out)
	return out, nil
}

// fig5 holds the five fault regions of the paper's Fig. 5, placed in its
// 8-ary 2-cube, with their faulty-node counts.
var fig5 = map[Shape]ShapeSpec{
	ShapeRect: {Shape: ShapeRect, A: 5, B: 4, AnchorA: 2, AnchorB: 2},       // 20
	ShapeT:    {Shape: ShapeT, A: 7, B: 3, AnchorA: 1, AnchorB: 2},          // 7 + 3 = 10
	ShapePlus: {Shape: ShapePlus, A: 5, B: 5, T: 2, AnchorA: 1, AnchorB: 1}, // 5*2 + 5*2 - 4 = 16
	ShapeL:    {Shape: ShapeL, A: 5, B: 5, AnchorA: 2, AnchorB: 2},          // 5 + 4 = 9
	ShapeU:    {Shape: ShapeU, A: 3, B: 4, AnchorA: 2, AnchorB: 2},          // 4 + 2*2 = 8
}

// ParseShapeSpec reads the fault-region grammar the command lines share: a
// Shape name ("doublebar" is the alias of "double-bar"), optionally
// followed by ":" and the sizes a, b (per shape, see cells), t (plus
// thickness, 0 = 1) and the anchor ax, ay. A bare Fig. 5 name (rect, T,
// plus, L, U) is the paper's region and the keys override it; bar,
// double-bar and H start at anchor (2,2) with no size. Sizes that make no
// silhouette are refused here; whether one fits a network is StampShape's
// to say.
func ParseShapeSpec(s string) (ShapeSpec, error) {
	s = strings.TrimSpace(s)
	name, _, _ := strings.Cut(s, ":")
	sh := Shape(slices.Index(shapeNames[:], name))
	if name == "doublebar" {
		sh = ShapeDoubleBar
	}
	if sh < 0 {
		return ShapeSpec{}, fmt.Errorf("fault: unknown shape %q (bar|double-bar|rect|L|U|T|plus|H)", name)
	}
	sp, ok := fig5[sh]
	if !ok {
		sp = ShapeSpec{Shape: sh, AnchorA: 2, AnchorB: 2}
	}
	// Registry names are lower-case: the name is matched above, and the
	// parser reads the parameter list behind a stand-in.
	spec, err := registry.Parse("shape" + s[len(name):])
	if err != nil {
		return ShapeSpec{}, fmt.Errorf("fault: %w", err)
	}
	spec.Name = name
	args := registry.NewArgs("fault", spec)
	sp.A, sp.B, sp.T = args.Int("a", sp.A), args.Int("b", sp.B), args.NonNegativeInt("t", sp.T)
	sp.AnchorA, sp.AnchorB = args.NonNegativeInt("ax", sp.AnchorA), args.NonNegativeInt("ay", sp.AnchorB)
	if err := args.Finish(); err != nil {
		return ShapeSpec{}, err
	}
	return sp, sp.check()
}
