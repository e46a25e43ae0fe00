// Package diagnosis simulates the fault-diagnosis substrate the
// Software-Based scheme presumes: with static faults and MTTR much smaller
// than MTBF (§4), nodes have time to learn the shape of nearby fault
// regions before routing resumes, and the messaging layer of a node on a
// region's boundary can size detours from the region's extents.
//
// The protocol modelled here is synchronous neighbourhood flooding: each
// healthy node starts knowing only the state of its incident links (which
// neighbours do not answer), and each round exchanges its accumulated fault
// set with every healthy neighbour. After r rounds a node knows every
// faulty node within distance r+1; the protocol converges in at most the
// healthy network's diameter many rounds.
//
// internal/routing's planner consults a global fault.Index for region
// extents; this package justifies that modelling shortcut: tests assert
// that, at convergence, every absorbing node (healthy neighbour of a
// region) knows the complete region, i.e. the global index and the local
// view agree exactly where the planner reads it.
package diagnosis

import (
	"iter"
	"maps"
	"slices"

	"repro/internal/fault"
	"repro/internal/topology"
)

// Protocol is one synchronous flooding instance over a fault configuration.
type Protocol struct {
	t     topology.Network
	f     *fault.Set
	views []map[topology.NodeID]bool // per node; nil for faulty nodes
	round int
}

// neighbours yields the nodes one hop from id: fewer at a mesh edge, the
// same node twice on a 2-ary ring.
func neighbours(t topology.Network, id topology.NodeID) iter.Seq[topology.NodeID] {
	return func(yield func(topology.NodeID) bool) {
		for p := topology.Port(0); int(p) < t.Degree(); p++ {
			if t.HasLink(id, p.Dim(), p.Dir()) && !yield(t.Neighbor(id, p.Dim(), p.Dir())) {
				return
			}
		}
	}
}

// New initialises the protocol: every healthy node knows exactly the faulty
// endpoints of its incident links (local failure detection).
func New(t topology.Network, f *fault.Set) *Protocol {
	p := &Protocol{t: t, f: f, views: make([]map[topology.NodeID]bool, t.Nodes())}
	for id := 0; id < t.Nodes(); id++ {
		node := topology.NodeID(id)
		if f.NodeFaulty(node) {
			continue
		}
		view := make(map[topology.NodeID]bool)
		for nb := range neighbours(t, node) {
			if f.NodeFaulty(nb) {
				view[nb] = true
			}
		}
		p.views[node] = view
	}
	return p
}

// Step performs one synchronous exchange round: every healthy node merges
// the previous-round views of its healthy neighbours. It reports whether
// any view grew.
func (p *Protocol) Step() bool {
	changed := false
	// Snapshot sizes; merging from the live views would make the round
	// order-dependent, so gather increments first.
	incoming := make([][]topology.NodeID, len(p.views))
	for id := range p.views {
		if p.views[id] == nil {
			continue
		}
		node := topology.NodeID(id)
		for port := topology.Port(0); int(port) < p.t.Degree(); port++ {
			if p.f.LinkFaulty(node, port) { // a missing mesh-edge link included
				continue
			}
			nb := p.t.Neighbor(node, port.Dim(), port.Dir())
			if p.views[nb] == nil {
				continue
			}
			for known := range p.views[nb] {
				if !p.views[id][known] {
					incoming[id] = append(incoming[id], known)
				}
			}
		}
	}
	for id, inc := range incoming {
		for _, known := range inc {
			if !p.views[id][known] {
				p.views[id][known] = true
				changed = true
			}
		}
	}
	p.round++
	return changed
}

// Run steps until no view changes or maxRounds is hit, returning the number
// of rounds executed.
func (p *Protocol) Run(maxRounds int) int {
	for i := 0; i < maxRounds; i++ {
		if !p.Step() {
			break
		}
	}
	return p.round
}

// View returns the faults known to node, ascending. Nil for faulty nodes.
func (p *Protocol) View(node topology.NodeID) []topology.NodeID {
	if p.views[node] == nil {
		return nil
	}
	return slices.Sorted(maps.Keys(p.views[node]))
}

// Knows reports whether node's view contains the faulty node q.
func (p *Protocol) Knows(node, q topology.NodeID) bool {
	v := p.views[node]
	return v != nil && v[q]
}

// BoundaryNodes returns the healthy neighbours of a region — exactly the
// nodes at which SW-Based messages absorb against it.
func BoundaryNodes(t topology.Network, f *fault.Set, r *fault.Region) []topology.NodeID {
	seen := make(map[topology.NodeID]bool)
	var out []topology.NodeID
	for _, id := range r.Nodes {
		for nb := range neighbours(t, id) {
			if !f.NodeFaulty(nb) && !seen[nb] {
				seen[nb] = true
				out = append(out, nb)
			}
		}
	}
	slices.Sort(out)
	return out
}

// Shell returns the region members adjacent to at least one healthy node —
// the diagnosable part of the region. Interior members of a solid block
// have no healthy neighbour and are invisible to any detection protocol,
// but every per-dimension extent extreme lies on the shell (an extreme
// member's outward neighbour cannot belong to the same coalesced region,
// so it is healthy), hence shell extents equal region extents.
func Shell(t topology.Network, f *fault.Set, r *fault.Region) []topology.NodeID {
	var out []topology.NodeID
	for _, id := range r.Nodes {
		for nb := range neighbours(t, id) {
			if !f.NodeFaulty(nb) {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// BoundaryComplete reports whether every boundary node of the region knows
// the region's complete shell — the precondition for the planner's
// extent-based detours being locally computable (shell extents equal
// region extents, see Shell).
func (p *Protocol) BoundaryComplete(r *fault.Region) bool {
	shell := Shell(p.t, p.f, r)
	for _, b := range BoundaryNodes(p.t, p.f, r) {
		for _, member := range shell {
			if !p.Knows(b, member) {
				return false
			}
		}
	}
	return true
}
