package topology

import (
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadParams(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{1, 2}, {0, 2}, {8, 0}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.k, tc.n)
				}
			}()
			New(tc.k, tc.n)
		}()
	}
}

func TestNodesAndDegree(t *testing.T) {
	for _, tc := range []struct{ k, n, nodes, deg int }{
		{8, 2, 64, 4},
		{8, 3, 512, 6},
		{16, 2, 256, 4},
		{4, 4, 256, 8},
		{2, 5, 32, 10},
	} {
		tor := New(tc.k, tc.n)
		if tor.Nodes() != tc.nodes {
			t.Errorf("%v: Nodes=%d want %d", tor, tor.Nodes(), tc.nodes)
		}
		if tor.Degree() != tc.deg {
			t.Errorf("%v: Degree=%d want %d", tor, tor.Degree(), tc.deg)
		}
	}
}

// TestCoordsRoundTrip holds Coord — a load from the digit table — to Coords'
// division, on every node of grids with a binary, an odd and an even radix
// and of a ring too wide for the table (Coord divides there).
func TestCoordsRoundTrip(t *testing.T) {
	for _, tor := range []*Torus{New(5, 3), New(2, 10), New(16, 2), New(40000, 1)} {
		for id := 0; id < tor.Nodes(); id++ {
			c := tor.Coords(NodeID(id))
			if got := tor.FromCoords(c); got != NodeID(id) {
				t.Fatalf("%v: roundtrip %d -> %v -> %d", tor, id, c, got)
			}
			for d := range c {
				if tor.Coord(NodeID(id), d) != c[d] {
					t.Fatalf("%v: Coord(%d,%d) = %d, Coords gave %d", tor, id, d, tor.Coord(NodeID(id), d), c[d])
				}
			}
		}
	}
}

func TestFromCoordsNormalises(t *testing.T) {
	tor := New(8, 2)
	if got, want := tor.FromCoords([]int{-1, 9}), tor.FromCoords([]int{7, 1}); got != want {
		t.Fatalf("normalisation: got %d want %d", got, want)
	}
}

func TestNeighborWraps(t *testing.T) {
	tor := New(8, 2)
	n0 := tor.FromCoords([]int{7, 3})
	if got := tor.Neighbor(n0, 0, Plus); tor.Coord(got, 0) != 0 || tor.Coord(got, 1) != 3 {
		t.Fatalf("wrap+ broken: got %v", tor.Coords(got))
	}
	n1 := tor.FromCoords([]int{0, 3})
	if got := tor.Neighbor(n1, 0, Minus); tor.Coord(got, 0) != 7 {
		t.Fatalf("wrap- broken: got %v", tor.Coords(got))
	}
}

func TestNeighborSymmetry(t *testing.T) {
	tor := New(6, 3)
	if err := quick.Check(func(raw uint32, dimRaw uint8, plus bool) bool {
		id := NodeID(int(raw) % tor.Nodes())
		dim := int(dimRaw) % tor.N()
		dir := Plus
		if !plus {
			dir = Minus
		}
		nb := tor.Neighbor(id, dim, dir)
		return tor.Neighbor(nb, dim, dir.Opposite()) == id
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRingOffsetProperties(t *testing.T) {
	for _, k := range []int{2, 3, 4, 7, 8, 16} {
		tor := New(k, 1)
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				o := tor.RingOffset(a, b)
				if (a+o%k+k)%k != b%k && (a+o+k*10)%k != b {
					t.Fatalf("k=%d offset(%d,%d)=%d does not reach", k, a, b, o)
				}
				if d := tor.RingDist(a, b); d > k/2 {
					t.Fatalf("k=%d dist(%d,%d)=%d exceeds k/2", k, a, b, d)
				}
				if tor.RingDist(a, b) != tor.RingDist(b, a) {
					t.Fatalf("ring distance not symmetric at k=%d (%d,%d)", k, a, b)
				}
			}
		}
	}
}

func TestDistanceMetric(t *testing.T) {
	tor := New(8, 3)
	if err := quick.Check(func(ra, rb uint32) bool {
		a := NodeID(int(ra) % tor.Nodes())
		b := NodeID(int(rb) % tor.Nodes())
		d := tor.Distance(a, b)
		if d != tor.Distance(b, a) {
			return false
		}
		if (d == 0) != (a == b) {
			return false
		}
		// One hop changes distance by exactly 1 in some direction.
		if a != b {
			found := false
			for dim := 0; dim < tor.N(); dim++ {
				for _, dir := range []Dir{Plus, Minus} {
					if tor.Distance(tor.Neighbor(a, dim, dir), b) == d-1 {
						found = true
					}
				}
			}
			if !found {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceMax(t *testing.T) {
	tor := New(8, 2)
	// Diameter of 8-ary 2-cube is 4+4 = 8.
	max := 0
	for a := 0; a < tor.Nodes(); a++ {
		d := tor.Distance(0, NodeID(a))
		if d > max {
			max = d
		}
	}
	if max != 8 {
		t.Fatalf("diameter = %d, want 8", max)
	}
}

func TestBothMinimal(t *testing.T) {
	tor := New(8, 2)
	a := tor.FromCoords([]int{0, 0})
	b := tor.FromCoords([]int{4, 2})
	if !tor.BothMinimal(a, b, 0) {
		t.Error("offset 4 on k=8 ring should be both-minimal")
	}
	if tor.BothMinimal(a, b, 1) {
		t.Error("offset 2 on k=8 ring should not be both-minimal")
	}
}

func TestEcubePathProperties(t *testing.T) {
	tor := New(8, 3)
	if err := quick.Check(func(ra, rb uint32) bool {
		a := NodeID(int(ra) % tor.Nodes())
		b := NodeID(int(rb) % tor.Nodes())
		p := tor.EcubePath(a, b)
		if p[0] != a || p[len(p)-1] != b {
			return false
		}
		if len(p)-1 != tor.Distance(a, b) {
			return false // e-cube is minimal
		}
		// consecutive nodes adjacent; dimensions visited in increasing order
		lastDim := -1
		for i := 1; i < len(p); i++ {
			if tor.Distance(p[i-1], p[i]) != 1 {
				return false
			}
			dim := -1
			for d := 0; d < tor.N(); d++ {
				if tor.Coord(p[i-1], d) != tor.Coord(p[i], d) {
					dim = d
				}
			}
			if dim < lastDim {
				return false
			}
			lastDim = dim
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPortMapping(t *testing.T) {
	for dim := 0; dim < 4; dim++ {
		for _, dir := range []Dir{Plus, Minus} {
			p := PortFor(dim, dir)
			if p.Dim() != dim || p.Dir() != dir {
				t.Fatalf("port roundtrip failed for (%d,%v)", dim, dir)
			}
			if p.Opposite().Dim() != dim || p.Opposite().Dir() != dir.Opposite() {
				t.Fatalf("opposite port wrong for (%d,%v)", dim, dir)
			}
		}
	}
}

func TestChannelsEnumeration(t *testing.T) {
	tor := New(4, 2)
	chs := ChannelsOf(tor)
	if len(chs) != tor.Nodes()*tor.Degree() {
		t.Fatalf("channel count = %d, want %d", len(chs), tor.Nodes()*tor.Degree())
	}
	seen := make(map[ChannelID]bool)
	for _, c := range chs {
		if seen[c] {
			t.Fatalf("duplicate channel %v", c)
		}
		seen[c] = true
		// Channel destination must be a real neighbour.
		if tor.Distance(c.Src, c.Dst(tor)) != 1 {
			t.Fatalf("channel %v connects non-adjacent nodes", c)
		}
	}
}

func TestWrapsAround(t *testing.T) {
	tor := New(8, 1)
	if !tor.WrapsAround(7, Plus) || !tor.WrapsAround(0, Minus) {
		t.Error("wrap edges not detected")
	}
	if tor.WrapsAround(3, Plus) || tor.WrapsAround(3, Minus) {
		t.Error("interior hop misreported as wrap")
	}
}

func TestPlane(t *testing.T) {
	tor := New(4, 3)
	base := tor.FromCoords([]int{1, 2, 3})
	pl := PlaneOf(tor, base, 0, 1)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			id := pl.Node(a, b)
			if !pl.Contains(id) {
				t.Fatalf("plane does not contain its own node %d", id)
			}
			if tor.Coord(id, 2) != 3 {
				t.Fatalf("frozen coordinate violated at node %v", tor.Coords(id))
			}
		}
	}
	if !pl.Contains(base) {
		t.Error("plane must contain its base")
	}
	out := tor.FromCoords([]int{1, 2, 0})
	if pl.Contains(out) {
		t.Error("node with different frozen coord reported in plane")
	}
	got := pl.Node(3, 1)
	if tor.Coord(got, 0) != 3 || tor.Coord(got, 1) != 1 || tor.Coord(got, 2) != 3 {
		t.Fatalf("plane Node(3,1) = %v", tor.Coords(got))
	}
}

func TestStringFormats(t *testing.T) {
	tor := New(8, 2)
	if tor.String() != "8-ary 2-cube (64 nodes)" {
		t.Errorf("String() = %q", tor.String())
	}
	if got := tor.FormatNode(tor.FromCoords([]int{3, 5})); got != "(3,5)" {
		t.Errorf("FormatNode = %q", got)
	}
	if PortFor(1, Minus).String() != "d1-" {
		t.Errorf("port string = %q", PortFor(1, Minus).String())
	}
}
