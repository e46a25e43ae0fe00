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
	"slices"
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
	// link holds the individual link-failure marks, one per channel,
	// indexed src·Degree + port; links counts the marked channels.
	link  []bool
	links int
}

// NewSet returns an empty fault configuration for the given network.
func NewSet(t topology.Network) *Set {
	return &Set{
		t:    t,
		node: make([]bool, t.Nodes()),
		link: make([]bool, t.Nodes()*t.Degree()),
	}
}

// Net returns the topology this fault set applies to.
func (s *Set) Net() topology.Network { return s.t }

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
	s.setLink(src, port, true)
}

// healNode clears a node failure. Apply-only: heals apply at the engine's
// serial transition point. Healing the node marked last restores nodes'
// order exactly, which the mtbf schedule's in-place probes rely on.
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
	s.setLink(src, port, false)
}

// setLink sets the mark of both channels of the link leaving src through
// port, keeping the count of marked channels. Both are always set together,
// so one channel's mark stands for the pair.
func (s *Set) setLink(src topology.NodeID, port topology.Port, failed bool) {
	i := s.channel(src, port)
	if s.link[i] == failed {
		return
	}
	dst := s.t.Neighbor(src, port.Dim(), port.Dir())
	s.link[i], s.link[s.channel(dst, port.Opposite())] = failed, failed
	if failed {
		s.links += 2
	} else {
		s.links -= 2
	}
}

// channel is the index of the channel leaving src through port in link.
func (s *Set) channel(src topology.NodeID, port topology.Port) int {
	return int(src)*s.t.Degree() + int(port)
}

// NodeFaulty reports whether node id has failed.
func (s *Set) NodeFaulty(id topology.NodeID) bool { return s.node[id] }

// LinkMarked reports whether the channel itself carries an individual link
// failure mark (endpoint node failures and missing mesh-edge wires do not
// count; LinkFaulty folds those in).
func (s *Set) LinkMarked(ch topology.ChannelID) bool { return s.link[s.channel(ch.Src, ch.Port)] }

// LinkFaulty reports whether the unidirectional channel leaving src through
// port is unusable: the link does not exist (mesh edge), the link itself
// failed, or an endpoint node failed.
func (s *Set) LinkFaulty(src topology.NodeID, port topology.Port) bool {
	if s.node[src] || s.link[s.channel(src, port)] || !s.t.HasLink(src, port.Dim(), port.Dir()) {
		return true
	}
	return s.node[s.t.Neighbor(src, port.Dim(), port.Dir())]
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
// runs the search on each); otherwise it walks from the first healthy node
// and counts the nodes it reaches.
func (s *Set) Disconnects() bool {
	if len(s.nodes) == 0 && s.links == 0 {
		return false
	}
	return s.search()
}

// search is Disconnects' walk over the whole healthy network.
func (s *Set) search() bool {
	healthy := s.t.Nodes() - len(s.nodes)
	if healthy == 0 {
		return true
	}
	start := topology.NodeID(slices.Index(s.node, false))
	_, reached := s.walk(start, -1, nil)
	return reached != healthy
}

// ShortestPath returns a shortest path from cur to goal over channels that
// are not faulty, entering only nodes admit accepts, as the node sequence
// from cur to goal inclusive; nil when goal has failed or is unreachable.
// Of several shortest paths it returns the one the walk discovers first.
func (s *Set) ShortestPath(cur, goal topology.NodeID, admit func(topology.NodeID) bool) []topology.NodeID {
	if s.node[goal] {
		return nil
	}
	if goal == cur {
		return []topology.NodeID{cur}
	}
	from, _ := s.walk(cur, goal, admit)
	if from[goal] == 0 {
		return nil
	}
	path := []topology.NodeID{goal}
	for at := goal; at != cur; {
		at = from[at] - 1
		path = append(path, at)
	}
	slices.Reverse(path)
	return path
}

// walk is the one breadth-first search over the healthy network: from
// start, across every channel that is not faulty, neighbours taken in port
// order, into nodes admit accepts (nil accepts every node). It stops on
// discovering goal (-1: never) and returns from — from[v] is one more than
// the node v was first reached from, from[start] is start+1, 0 means
// unreached — and the number of nodes reached, start included.
func (s *Set) walk(start, goal topology.NodeID, admit func(topology.NodeID) bool) ([]topology.NodeID, int) {
	from := make([]topology.NodeID, s.t.Nodes())
	from[start] = start + 1
	queue := []topology.NodeID{start}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for p := 0; p < s.t.Degree(); p++ {
			port := topology.Port(p)
			if s.LinkFaulty(cur, port) {
				continue
			}
			nb := s.t.Neighbor(cur, port.Dim(), port.Dir())
			if from[nb] != 0 || (admit != nil && !admit(nb)) {
				continue
			}
			from[nb] = cur + 1
			queue = append(queue, nb)
			if nb == goal {
				return from, len(queue)
			}
		}
	}
	return from, len(queue)
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
