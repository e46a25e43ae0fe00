package topology

import (
	"fmt"
	"math"
	"strings"
)

// grid is the n-digit radix-k address space Torus and Mesh share: node
// numbering and address arithmetic, with no notion of which ±1 moves carry
// links. Both embed it by value and add only their link geometry.
type grid struct {
	k int // radix: nodes per dimension
	n int // number of dimensions
	// pow[i] = k^i, cached for fast address arithmetic.
	pow []int
	// digits tabulates every address, n digits per node: routing asks for a
	// handful of them per head flit, and a load is cheaper than two
	// divisions by runtime values. Nil when a digit does not fit (k > 32767).
	digits []int16
}

// newGrid panics on degenerate parameters (k < 2 or n < 1): those are
// programming errors, not runtime conditions.
func newGrid(k, n int) grid {
	if k < 2 {
		panic(fmt.Sprintf("topology: radix k must be >= 2, got %d", k))
	}
	if n < 1 {
		panic(fmt.Sprintf("topology: dimension n must be >= 1, got %d", n))
	}
	pow := make([]int, n+1)
	pow[0] = 1
	for i := 1; i <= n; i++ {
		pow[i] = pow[i-1] * k
	}
	g := grid{k: k, n: n, pow: pow}
	if k <= math.MaxInt16 {
		g.digits = make([]int16, pow[n]*n)
		for i := n; i < len(g.digits); i += n {
			// The next address: the previous one plus one, with carry.
			copy(g.digits[i:i+n], g.digits[i-n:i])
			for d := i; ; d++ {
				if g.digits[d]++; int(g.digits[d]) < k {
					break
				}
				g.digits[d] = 0
			}
		}
	}
	return g
}

// K returns the radix (nodes per dimension).
func (g *grid) K() int { return g.k }

// N returns the number of dimensions.
func (g *grid) N() int { return g.n }

// Nodes returns the total node count k^n.
func (g *grid) Nodes() int { return g.pow[g.n] }

// Degree returns the number of network ports per router (2 per dimension;
// edge routers of a mesh leave outward ports unwired).
func (g *grid) Degree() int { return 2 * g.n }

// Coord returns the address digit of node id along dimension dim.
func (g *grid) Coord(id NodeID, dim int) int {
	if g.digits != nil {
		return int(g.digits[int(id)*g.n+dim])
	}
	return (int(id) / g.pow[dim]) % g.k
}

// Coords decomposes a node id into its full address {a0, ..., a(n-1)}.
func (g *grid) Coords(id NodeID) []int {
	c := make([]int, g.n)
	v := int(id)
	for i := 0; i < g.n; i++ {
		c[i] = v % g.k
		v /= g.k
	}
	return c
}

// FromCoords composes a node id from an address. Digits are reduced mod k so
// callers may pass unnormalised (e.g. negative) coordinates — on meshes too:
// the shared plane/shape helpers rely on it.
func (g *grid) FromCoords(c []int) NodeID {
	if len(c) != g.n {
		panic(fmt.Sprintf("topology: FromCoords got %d digits, want %d", len(c), g.n))
	}
	id := 0
	for i := g.n - 1; i >= 0; i-- {
		d := c[i] % g.k
		if d < 0 {
			d += g.k
		}
		id = id*g.k + d
	}
	return NodeID(id)
}

// Valid reports whether id is a legal node identifier.
func (g *grid) Valid(id NodeID) bool {
	return id >= 0 && int(id) < g.Nodes()
}

// LinkLatency implements Network: base grids defer every link to the
// engine's configured default (overlay with a latmap for non-uniform wires).
func (g *grid) LinkLatency(src NodeID, port Port) int64 { return 0 }

// FormatNode renders a node address as "(a0,a1,...)" for logs and traces.
func (g *grid) FormatNode(id NodeID) string {
	c := g.Coords(id)
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}
