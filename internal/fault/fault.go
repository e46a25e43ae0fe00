// Package fault models component failures in k-ary n-cube networks as
// described in Section 3 of Safaei et al. (IPDPS 2006): static permanent
// faults, node and link failures, random fault placement, and coalesced
// fault regions of convex (block) and concave shapes.
//
// The paper's assumption (h) — faults never disconnect the network — is
// enforced by the random injectors in this package and checkable explicitly
// via Set.Disconnects.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/topology"
)

// Set is a static fault configuration over one network: which nodes have
// failed, plus individually failed links. Per the paper, a node failure
// marks every physical link and virtual channel incident on the failed node
// faulty at the adjacent routers; Set implements that implication in
// LinkFaulty. On non-wrapping topologies (mesh), a channel that does not
// exist at all (edge port) also reports faulty: "unusable" is the single
// property routing needs, whether the cause is a failure or a missing wire.
//
// Sets are built once before a simulation starts and, in the paper's static
// fault model (MTTR >> simulation horizon), never change afterwards, so all
// query methods are safe for concurrent readers. Dynamic-fault runs mutate
// a Set through Apply (see transition.go), which the engine calls only at
// the serial transition point of a cycle — between cycles every reader still
// sees a frozen Set.
type Set struct {
	t     topology.Network
	node  []bool // indexed by NodeID
	nodes []topology.NodeID
	link  map[topology.ChannelID]bool
}

// NewSet returns an empty fault configuration for the given network.
func NewSet(t topology.Network) *Set {
	return &Set{
		t:    t,
		node: make([]bool, t.Nodes()),
		link: make(map[topology.ChannelID]bool),
	}
}

// Net returns the topology this fault set applies to.
func (s *Set) Net() topology.Network { return s.t }

// Clone returns an independent copy of the fault configuration. Schedules
// use clones to test candidate transitions (connectivity preservation)
// without touching the live set.
func (s *Set) Clone() *Set {
	c := &Set{
		t:     s.t,
		node:  make([]bool, len(s.node)),
		nodes: append([]topology.NodeID(nil), s.nodes...),
		link:  make(map[topology.ChannelID]bool, len(s.link)),
	}
	copy(c.node, s.node)
	//simlint:ignore maprange -- map-to-map set copy; the destination is itself unordered, so no order can leak
	for ch := range s.link {
		c.link[ch] = true
	}
	return c
}

// MarkNode marks one node (PE + router) failed. Marking twice is a no-op.
func (s *Set) MarkNode(id topology.NodeID) {
	if !s.t.Valid(id) {
		panic(fmt.Sprintf("fault: invalid node %d", id))
	}
	if !s.node[id] {
		s.node[id] = true
		s.nodes = append(s.nodes, id)
	}
}

// MarkNodes marks a batch of nodes failed.
func (s *Set) MarkNodes(ids []topology.NodeID) {
	for _, id := range ids {
		s.MarkNode(id)
	}
}

// MarkLink marks the physical link leaving src through port failed in both
// directions (the paired channel of the neighbouring router fails too). It
// panics when the network has no such link (mesh edge): callers with
// untrusted link lists validate against HasLink first (core's Validate).
func (s *Set) MarkLink(src topology.NodeID, port topology.Port) {
	if !s.t.Valid(src) || !s.t.HasLink(src, port.Dim(), port.Dir()) {
		panic(fmt.Sprintf("fault: no link %v on %s", topology.ChannelID{Src: src, Port: port}, s.t))
	}
	ch := topology.ChannelID{Src: src, Port: port}
	s.link[ch] = true
	dst := ch.Dst(s.t)
	s.link[topology.ChannelID{Src: dst, Port: port.Opposite()}] = true
}

// healNode clears a node failure. Apply-only: heals apply at the engine's
// serial transition point.
func (s *Set) healNode(id topology.NodeID) {
	if !s.node[id] {
		return
	}
	s.node[id] = false
	for i, n := range s.nodes {
		if n == id {
			s.nodes = append(s.nodes[:i], s.nodes[i+1:]...)
			break
		}
	}
}

// healLink clears an individual link failure in both directions. Apply-only.
func (s *Set) healLink(src topology.NodeID, port topology.Port) {
	ch := topology.ChannelID{Src: src, Port: port}
	if !s.link[ch] {
		return
	}
	delete(s.link, ch)
	dst := ch.Dst(s.t)
	delete(s.link, topology.ChannelID{Src: dst, Port: port.Opposite()})
}

// NodeFaulty reports whether node id has failed.
func (s *Set) NodeFaulty(id topology.NodeID) bool { return s.node[id] }

// LinkMarked reports whether the channel itself carries an individual link
// failure mark (endpoint node failures and missing mesh-edge wires do not
// count; LinkFaulty folds those in).
func (s *Set) LinkMarked(ch topology.ChannelID) bool { return s.link[ch] }

// LinkFaulty reports whether the unidirectional channel leaving src through
// port is unusable: the link does not exist (mesh edge), the link itself
// failed, or an endpoint node failed.
func (s *Set) LinkFaulty(src topology.NodeID, port topology.Port) bool {
	if s.node[src] {
		return true
	}
	if !s.t.HasLink(src, port.Dim(), port.Dir()) {
		return true
	}
	ch := topology.ChannelID{Src: src, Port: port}
	if s.link[ch] {
		return true
	}
	return s.node[ch.Dst(s.t)]
}

// NumNodeFaults returns the count of failed nodes.
func (s *Set) NumNodeFaults() int { return len(s.nodes) }

// FaultyNodes returns the failed nodes in ascending order.
func (s *Set) FaultyNodes() []topology.NodeID {
	out := make([]topology.NodeID, len(s.nodes))
	copy(out, s.nodes)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HealthyNodes returns all non-failed nodes in ascending order.
func (s *Set) HealthyNodes() []topology.NodeID {
	out := make([]topology.NodeID, 0, s.t.Nodes()-len(s.nodes))
	for id := 0; id < s.t.Nodes(); id++ {
		if !s.node[id] {
			out = append(out, topology.NodeID(id))
		}
	}
	return out
}

// Disconnects reports whether the healthy sub-network is disconnected: some
// pair of healthy nodes has no fault-free path. An empty set answers at once:
// every registered topology is connected (TestEmptySetConnectsEveryTopology
// runs the search on each); otherwise it runs a BFS from the first healthy
// node over non-faulty links.
func (s *Set) Disconnects() bool {
	if len(s.nodes) == 0 && len(s.link) == 0 {
		return false
	}
	return s.search()
}

// search is Disconnects' BFS.
func (s *Set) search() bool {
	start := topology.NodeID(-1)
	healthy := 0
	for id := 0; id < s.t.Nodes(); id++ {
		if !s.node[id] {
			healthy++
			if start < 0 {
				start = topology.NodeID(id)
			}
		}
	}
	if healthy == 0 {
		return true
	}
	seen := make([]bool, s.t.Nodes())
	queue := []topology.NodeID{start}
	seen[start] = true
	reached := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for p := 0; p < s.t.Degree(); p++ {
			port := topology.Port(p)
			if s.LinkFaulty(cur, port) {
				continue
			}
			nb := s.t.Neighbor(cur, port.Dim(), port.Dir())
			if !seen[nb] {
				seen[nb] = true
				reached++
				queue = append(queue, nb)
			}
		}
	}
	return reached != healthy
}

// PathFaultFree reports whether every node and hop of path is healthy.
// The first node is exempt from the node check when exemptFirst is set (a
// message can depart from the node it currently occupies).
func (s *Set) PathFaultFree(path []topology.NodeID, exemptFirst bool) bool {
	for i, id := range path {
		if i == 0 && exemptFirst {
			continue
		}
		if s.node[id] {
			return false
		}
	}
	for i := 1; i < len(path); i++ {
		dim, dir, ok := hopDir(s.t, path[i-1], path[i])
		if !ok {
			return false
		}
		if i == 1 && exemptFirst {
			// The exemption covers the first node entirely, including its
			// role as the source endpoint of the first hop; only a
			// link-specific fault or the far endpoint can fail this hop.
			ch := topology.ChannelID{Src: path[0], Port: topology.PortFor(dim, dir)}
			if s.link[ch] || s.node[path[1]] {
				return false
			}
			continue
		}
		if s.LinkFaulty(path[i-1], topology.PortFor(dim, dir)) {
			return false
		}
	}
	return true
}

// hopDir identifies the (dimension, direction) of a single hop a -> b.
// Missing links (mesh edges) never match: Neighbor returns -1 there, and b
// is a valid node id.
func hopDir(t topology.Network, a, b topology.NodeID) (int, topology.Dir, bool) {
	for d := 0; d < t.N(); d++ {
		if t.Neighbor(a, d, topology.Plus) == b {
			return d, topology.Plus, true
		}
		if t.Neighbor(a, d, topology.Minus) == b {
			return d, topology.Minus, true
		}
	}
	return 0, 0, false
}

// Random places nf random node faults ("Random faulty nodes are determined
// using a uniform random number generator", §5.2), rejecting placements
// that disconnect the network (paper assumption (h)). It returns the
// resulting fault set or an error if no admissible placement was found.
func Random(t topology.Network, nf int, r *rng.Stream) (*Set, error) {
	if nf < 0 || nf >= t.Nodes() {
		return nil, fmt.Errorf("fault: cannot place %d faults in %d nodes", nf, t.Nodes())
	}
	const maxAttempts = 1000 // bounds the rejection-sampling loop
	for attempt := 0; attempt < maxAttempts; attempt++ {
		s := NewSet(t)
		for _, v := range r.Perm(t.Nodes())[:nf] {
			s.MarkNode(topology.NodeID(v))
		}
		if !s.Disconnects() {
			return s, nil
		}
	}
	return nil, fmt.Errorf("fault: no connected placement of %d faults found in %d attempts", nf, maxAttempts)
}
