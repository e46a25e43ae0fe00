package fault

import (
	"sort"

	"repro/internal/topology"
)

// Region is a coalesced set of adjacent faulty nodes ("Adjacent faulty nodes
// may be coalesced into fault regions", §3). The Software-Based messaging
// layer consults the region containing a blocking node to size its
// orthogonal detours.
type Region struct {
	t topology.Network
	// Nodes are the member faulty nodes, ascending.
	Nodes []topology.NodeID
}

// Regions coalesces the fault set's failed nodes into maximal connected
// regions (adjacency along any dimension). Regions are returned sorted by
// their smallest member for determinism.
func (s *Set) Regions() []*Region {
	visited := make([]bool, s.t.Nodes())
	var regions []*Region
	ordered := s.FaultyNodes()
	for _, seed := range ordered {
		if visited[seed] {
			continue
		}
		// BFS across faulty nodes only.
		reg := &Region{t: s.t}
		queue := []topology.NodeID{seed}
		visited[seed] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			reg.Nodes = append(reg.Nodes, cur)
			for d := 0; d < s.t.N(); d++ {
				for _, dir := range []topology.Dir{topology.Plus, topology.Minus} {
					nb := s.t.Neighbor(cur, d, dir)
					if nb < 0 { // mesh edge: no link, no adjacency
						continue
					}
					if s.node[nb] && !visited[nb] {
						visited[nb] = true
						queue = append(queue, nb)
					}
				}
			}
		}
		sort.Slice(reg.Nodes, func(i, j int) bool { return reg.Nodes[i] < reg.Nodes[j] })
		regions = append(regions, reg)
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i].Nodes[0] < regions[j].Nodes[0] })
	return regions
}

// Size returns the number of faulty nodes in the region.
func (r *Region) Size() int { return len(r.Nodes) }

// Interval is a covering arc [Lo, Hi] of ring coordinates, inclusive; Wraps
// marks an arc passing through the k-1 -> 0 edge (then Lo > Hi numerically).
type Interval struct {
	Lo, Hi int
	Wraps  bool
}

// Len returns the number of coordinates covered by the interval on a k-ring.
func (iv Interval) Len(k int) int {
	if !iv.Wraps {
		return iv.Hi - iv.Lo + 1
	}
	return (k - iv.Lo) + iv.Hi + 1
}

// Extent returns the minimal ring interval covering the region's coordinates
// along dim. For regions narrower than the full ring this is unique; a
// region spanning every coordinate returns the full ring as a non-wrapping
// interval.
func (r *Region) Extent(dim int) Interval {
	k := r.t.K()
	present := make([]bool, k)
	count := 0
	for _, id := range r.Nodes {
		c := r.t.Coord(id, dim)
		if !present[c] {
			present[c] = true
			count++
		}
	}
	if count == k {
		return Interval{Lo: 0, Hi: k - 1}
	}
	// Find the longest run of absent coordinates; the complement is the
	// minimal covering arc.
	bestGapStart, bestGapLen := -1, -1
	for start := 0; start < k; start++ {
		if present[start] {
			continue
		}
		length := 0
		for length < k && !present[(start+length)%k] {
			length++
		}
		if length > bestGapLen {
			bestGapLen, bestGapStart = length, start
		}
	}
	lo := (bestGapStart + bestGapLen) % k
	hi := (bestGapStart - 1 + k) % k
	return Interval{Lo: lo, Hi: hi, Wraps: lo > hi}
}

// Convex reports whether the region is a block fault: its node set equals
// the full cartesian product of its per-dimension extents (□-, |-, ||-shaped
// single bars are convex; U, +, T, H, L are concave). This is the
// convex/concave distinction of §3 and Fig. 1.
func (r *Region) Convex() bool {
	boxSize := 1
	for d := 0; d < r.t.N(); d++ {
		boxSize *= r.Extent(d).Len(r.t.K())
	}
	return boxSize == len(r.Nodes)
}

// Index maps every faulty node to its coalesced region for O(1) lookup in
// the rerouting hot path.
type Index struct {
	byNode map[topology.NodeID]*Region
}

// NewIndex precomputes the region index for a fault set.
func NewIndex(s *Set) *Index {
	idx := &Index{byNode: make(map[topology.NodeID]*Region)}
	for _, r := range s.Regions() {
		for _, id := range r.Nodes {
			idx.byNode[id] = r
		}
	}
	return idx
}

// Of returns the region containing id, or nil for healthy nodes.
func (ix *Index) Of(id topology.NodeID) *Region { return ix.byNode[id] }
