// Package topology models k-ary n-cube (torus) interconnection networks:
// node addressing, channel/port naming, neighbourhood, and minimal-path
// geometry, exactly as described in Section 2 of Safaei et al. (IPDPS 2006).
//
// A k-ary n-cube consists of N = k^n nodes arranged in an n-dimensional cube
// with k nodes along each dimension. Each node carries an n-digit radix-k
// address and is connected by a pair of unidirectional channels (one per
// direction) to the nodes whose address differs by ±1 (mod k) in exactly one
// digit. The topology is regular and edge-symmetric.
package topology

import "fmt"

// NodeID identifies a node as the radix-k integer encoding of its address:
// id = a0 + a1*k + a2*k^2 + ... for address digits a0..a(n-1).
type NodeID int

// Dir is a direction along a dimension: Plus moves towards increasing
// coordinates (with wraparound), Minus towards decreasing.
type Dir int8

const (
	// Plus is the +1 (mod k) direction along a dimension.
	Plus Dir = +1
	// Minus is the -1 (mod k) direction along a dimension.
	Minus Dir = -1
)

// Opposite returns the reverse direction.
func (d Dir) Opposite() Dir { return -d }

func (d Dir) String() string {
	if d == Plus {
		return "+"
	}
	return "-"
}

// Torus is an immutable k-ary n-cube descriptor: the shared grid plus
// wraparound links on every ring. All methods are safe for concurrent use.
type Torus struct{ grid }

// New constructs a k-ary n-cube. It panics on degenerate parameters
// (k < 2 or n < 1).
func New(k, n int) *Torus { return &Torus{newGrid(k, n)} }

// Kind implements Network.
func (t *Torus) Kind() string { return "torus" }

// Wraps implements Network: tori close every ring with wraparound links,
// which is what makes the dateline virtual-channel classes necessary.
func (t *Torus) Wraps() bool { return true }

// HasLink implements Network: every ±1 move of a torus carries a channel.
func (t *Torus) HasLink(id NodeID, dim int, dir Dir) bool { return dim < t.n }

// Neighbor returns the node adjacent to id along dim in direction dir,
// with wraparound.
func (t *Torus) Neighbor(id NodeID, dim int, dir Dir) NodeID {
	c := t.Coord(id, dim)
	nc := c + int(dir)
	if nc < 0 {
		nc += t.k
	} else if nc >= t.k {
		nc -= t.k
	}
	return NodeID(int(id) + (nc-c)*t.pow[dim])
}

// RingOffset returns the minimal signed hop offset from coordinate a to b on
// a k-node ring: the value o with |o| minimal such that a+o ≡ b (mod k).
// Ties (|o| = k/2 for even k) resolve to the positive direction, matching the
// usual dimension-order convention.
func (t *Torus) RingOffset(a, b int) int {
	d := b - a
	if d < 0 {
		d += t.k
	}
	if 2*d <= t.k {
		return d
	}
	return d - t.k
}

// RingDist returns the minimal hop count between two coordinates on a ring.
func (t *Torus) RingDist(a, b int) int {
	o := t.RingOffset(a, b)
	if o < 0 {
		return -o
	}
	return o
}

// Distance returns the minimal hop count between two nodes (sum of per-
// dimension ring distances).
func (t *Torus) Distance(a, b NodeID) int {
	d := 0
	for i := 0; i < t.n; i++ {
		d += t.RingDist(t.Coord(a, i), t.Coord(b, i))
	}
	return d
}

// BothMinimal reports whether, along dimension dim, both ring directions from
// src to dst are minimal (possible only for even k at offset k/2).
func (t *Torus) BothMinimal(src, dst NodeID, dim int) bool {
	d := t.RingDist(t.Coord(src, dim), t.Coord(dst, dim))
	return d*2 == t.k
}

// String renders, e.g., "8-ary 2-cube (64 nodes)".
func (t *Torus) String() string {
	return fmt.Sprintf("%d-ary %d-cube (%d nodes)", t.k, t.n, t.Nodes())
}
