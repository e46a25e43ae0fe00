package topology

import "fmt"

// Mesh is an immutable k-ary n-mesh descriptor: the k-ary n-cube grid
// without the wraparound links. Edge routers simply leave their outward
// ports unwired (HasLink reports false; Neighbor returns -1). Because no
// ring closes, there is no dateline: WrapsAround is constantly false, so
// routing algorithms built on the dateline virtual-channel discipline
// collapse to a single VC class, and direction-reversal detours (which rely
// on reaching a coordinate "the other way around") are never profitable.
// All methods are safe for concurrent use.
type Mesh struct{ grid }

// NewMesh constructs a k-ary n-mesh. It panics on degenerate parameters
// (k < 2 or n < 1).
func NewMesh(k, n int) *Mesh { return &Mesh{newGrid(k, n)} }

// Kind implements Network.
func (m *Mesh) Kind() string { return "mesh" }

// Wraps implements Network: meshes have no wraparound links.
func (m *Mesh) Wraps() bool { return false }

// HasLink reports whether a channel leaves id along dim towards dir: false
// exactly at the mesh edges (coordinate 0 going Minus, k-1 going Plus).
func (m *Mesh) HasLink(id NodeID, dim int, dir Dir) bool {
	c := m.Coord(id, dim)
	if dir == Plus {
		return c < m.k-1
	}
	return c > 0
}

// Neighbor returns the node adjacent to id along dim in direction dir, or
// -1 at the mesh edge where no link exists.
func (m *Mesh) Neighbor(id NodeID, dim int, dir Dir) NodeID {
	c := m.Coord(id, dim)
	nc := c + int(dir)
	if nc < 0 || nc >= m.k {
		return -1
	}
	return NodeID(int(id) + (nc-c)*m.pow[dim])
}

// RingOffset returns the signed hop offset from coordinate a to b: with no
// wraparound there is exactly one way along the line, the plain difference.
func (m *Mesh) RingOffset(a, b int) int { return b - a }

// RingDist returns the hop count between two coordinates on the line.
func (m *Mesh) RingDist(a, b int) int {
	if b < a {
		return a - b
	}
	return b - a
}

// Distance returns the minimal hop count between two nodes (sum of
// per-dimension line distances — the Manhattan distance).
func (m *Mesh) Distance(a, b NodeID) int {
	d := 0
	for i := 0; i < m.n; i++ {
		d += m.RingDist(m.Coord(a, i), m.Coord(b, i))
	}
	return d
}

// BothMinimal implements Network: a line has a unique minimal direction.
func (m *Mesh) BothMinimal(src, dst NodeID, dim int) bool { return false }

// WrapsAround implements Network: no hop crosses a dateline on a mesh.
func (m *Mesh) WrapsAround(c int, dir Dir) bool { return false }

// String renders, e.g., "8-ary 2-mesh (64 nodes)".
func (m *Mesh) String() string {
	return fmt.Sprintf("%d-ary %d-mesh (%d nodes)", m.k, m.n, m.Nodes())
}
