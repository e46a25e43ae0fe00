package topology

// This file contains path geometry helpers shared by the routing algorithms
// and the test suite: dimension-order path enumeration, wraparound (dateline)
// detection, and 2-D plane extraction used by the Software-Based rerouting
// layer, which always reasons about a pair of consecutive dimensions.

// WrapsAround reports whether one hop from coordinate c in direction dir
// crosses the ring's wraparound edge (between coordinates k-1 and 0). The
// wraparound edge doubles as the dateline for deadlock-free virtual-channel
// class assignment (Dally & Seitz).
func (t *Torus) WrapsAround(c int, dir Dir) bool {
	if dir == Plus {
		return c == t.k-1
	}
	return c == 0
}

// EcubePath returns the dimension-order (e-cube) path from src to dst,
// inclusive of both endpoints: dimensions corrected in increasing order,
// minimal direction within each ring. This is the fault-free trajectory of
// the deterministic routing algorithm: the reference path the topology,
// fault and routing tests check against. No engine or routing code calls
// it; it lives here because tests of three packages share it.
func (t *Torus) EcubePath(src, dst NodeID) []NodeID {
	path := []NodeID{src}
	cur := src
	for dim := 0; dim < t.n; dim++ {
		o := t.RingOffset(t.Coord(cur, dim), t.Coord(dst, dim))
		dir := Plus
		if o < 0 {
			dir = Minus
			o = -o
		}
		for s := 0; s < o; s++ {
			cur = t.Neighbor(cur, dim, dir)
			path = append(path, cur)
		}
	}
	return path
}

// Plane describes the 2-D sub-grid spanned by dimensions (DimA, DimB)
// through a base node of any Network: all other coordinates are frozen to
// the base node's. SW-Based-nD routes every message through a sequence of
// such planes; fault shapes are stamped into them.
type Plane struct {
	net        Network
	DimA, DimB int
	base       NodeID
}

// PlaneOf returns the plane of net spanned by (dimA, dimB) through base.
func PlaneOf(net Network, base NodeID, dimA, dimB int) Plane {
	if dimA == dimB {
		panic("topology: plane requires two distinct dimensions")
	}
	return Plane{net: net, DimA: dimA, DimB: dimB, base: base}
}

// Node returns the plane member with coordinates (a, b) along (DimA, DimB).
func (p Plane) Node(a, b int) NodeID {
	c := p.net.Coords(p.base)
	c[p.DimA] = a
	c[p.DimB] = b
	return p.net.FromCoords(c)
}

// Contains reports whether id lies in the plane (all frozen coordinates
// match the base node's).
func (p Plane) Contains(id NodeID) bool {
	for d := 0; d < p.net.N(); d++ {
		if d == p.DimA || d == p.DimB {
			continue
		}
		if p.net.Coord(id, d) != p.net.Coord(p.base, d) {
			return false
		}
	}
	return true
}
