// Package deadlock mechanically checks the deadlock-freedom argument of §4
// of the paper: the (extended) channel dependency graph of the routing
// relation must be acyclic (Dally & Seitz; Duato). Build derives the graph
// from a routing.Router's own decisions, over any topology and fault set;
// Cycle reports acyclicity with a witness. A cycle is a failed sufficient
// condition, not a demonstrated deadlock.
package deadlock

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/topology"
)

// VC is a vertex of the extended channel dependency graph: one virtual
// channel of one unidirectional physical channel, as Route names it.
type VC struct {
	Ch    topology.ChannelID
	Index int
}

func (v VC) String() string { return fmt.Sprintf("%v/vc%d", v.Ch, v.Index) }

func compare(a, b VC) int {
	return cmp.Or(cmp.Compare(a.Ch.Src, b.Ch.Src), cmp.Compare(a.Ch.Port, b.Ch.Port), cmp.Compare(a.Index, b.Index))
}

// Graph is a channel dependency graph: the successors of every vertex. Not
// safe for concurrent mutation.
type Graph map[VC]map[VC]struct{}

// AddEdge records a dependency a -> b (holding a while requesting b).
func (g Graph) AddEdge(a, b VC) {
	g.vertex(a)[b] = struct{}{}
	g.vertex(b)
}

func (g Graph) vertex(v VC) map[VC]struct{} {
	if g[v] == nil {
		g[v] = make(map[VC]struct{})
	}
	return g[v]
}

// Size returns the number of vertices and edges.
func (g Graph) Size() (vertices, edges int) {
	for _, out := range g {
		edges += len(out)
	}
	return len(g), edges
}

// Build constructs the dependency graph of a's routing relation: every
// ordered pair of healthy nodes is explored with the stepper routing.Walk
// runs, branching over every candidate. A decision's vertices are its
// Fallback candidates where it has any (the escape relation of Duato's
// protocol) and its Preferred candidates otherwise; a worm holding one on
// the port it leaves through depends directly on each vertex of its next
// decision. A software stop takes the worm out of the network and so cuts
// the chain — the paper's argument. Dependencies through adaptive channels
// that are not vertices (Duato's indirect ones) are not modelled.
//
// Pairs are explored destination by destination. A state names its
// destination, so no state is met again once its destination is done, and
// the memo holds one destination's states at a time.
func Build(a routing.Router) (Graph, error) {
	b := builder{a: a, g: Graph{}, seen: make(map[routing.WormState][]VC)}
	t, healthy := a.Topology(), a.Faults().HealthyNodes()
	for j, dst := range healthy {
		for i, src := range healthy {
			if i == j {
				continue
			}
			// The ID routing.EachPair's src-major order gives the pair:
			// valiant draws its intermediate node from it.
			id := uint64(i*(len(healthy)-1) + j)
			if j > i {
				id--
			}
			m := message.New(id, src, dst, 1, t.N(), a.BaseMode(), 0)
			if err := b.explore(src, m, nil, 0, 40*t.Nodes()); err != nil {
				return b.g, err
			}
		}
		clear(b.seen)
	}
	return b.g, nil
}

type builder struct {
	a routing.Router
	g Graph
	// seen maps an explored state of the current destination to the
	// vertices a worm entering it requests (none at a software stop or the
	// destination).
	seen map[routing.WormState][]VC
}

// explore follows worm m, head at cur and holding one of the held vertices
// of the port it came through, until every continuation is delivered or
// meets an explored state.
func (b *builder) explore(cur topology.NodeID, m *message.Message, held []VC, through topology.Port, budget int) error {
	if budget == 0 {
		return fmt.Errorf("deadlock: %s: step budget exhausted towards %d", b.a.Name(), m.Dst)
	}
	state := routing.Snapshot(cur, m)
	requests, seen := b.seen[state]
	if !seen {
		dec := b.a.Route(cur, m)
		if dec.Outcome != routing.Progress {
			b.seen[state] = nil
			if dec.Outcome == routing.Deliver {
				return nil
			}
			if !routing.SoftwareStop(b.a, cur, m, dec) {
				return fmt.Errorf("deadlock: %s: no route from %d to %d", b.a.Name(), cur, m.Dst)
			}
			return b.explore(cur, m, nil, 0, budget-1)
		}
		relation := dec.Fallback
		if len(relation) == 0 {
			relation = dec.Preferred
		}
		for _, c := range relation {
			requests = append(requests, VC{topology.ChannelID{Src: cur, Port: c.Port}, c.VC})
			b.g.vertex(requests[len(requests)-1])
		}
		b.seen[state] = requests
		// The worm may leave through any candidate port, escape or not
		// (copied: Route reuses the decision's storage).
		cands := slices.Concat(dec.Preferred, dec.Fallback)
		for i, c := range cands {
			if slices.ContainsFunc(cands[:i], func(o routing.CandidateVC) bool { return o.Port == c.Port }) {
				continue
			}
			next := *m
			next.Via = slices.Clone(m.Via)
			if err := b.explore(routing.Hop(b.a.Topology(), cur, &next, c.Port), &next, requests, c.Port, budget-1); err != nil {
				return err
			}
		}
	}
	for _, h := range held {
		if h.Ch.Port == through {
			out := b.g.vertex(h) // requests are vertices already
			for _, r := range requests {
				out[r] = struct{}{}
			}
		}
	}
	return nil
}

// MustBeAcyclic reports whether §4 claims the relation of algorithm alg
// (its primary name) acyclic: det's and valiant's everywhere, and every
// one fault-free.
func MustBeAcyclic(alg string, faultFree bool) bool {
	return alg == "det" || alg == "valiant" || faultFree
}

// Cycle returns a dependency cycle as a vertex sequence (first == last), or
// nil if the graph is acyclic. Iteration order is made deterministic by
// sorting vertices.
func (g Graph) Cycle() []VC {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[VC]int, len(g))
	var path, cycle []VC // path holds the grey vertices, in edge order
	var dfs func(v VC) bool
	dfs = func(v VC) bool {
		color[v] = grey
		path = append(path, v)
		for _, w := range slices.SortedFunc(maps.Keys(g[v]), compare) {
			switch color[w] {
			case white:
				if dfs(w) {
					return true
				}
			case grey:
				cycle = append(slices.Clone(path[slices.Index(path, w):]), w)
				return true
			}
		}
		color[v] = black
		path = path[:len(path)-1]
		return false
	}
	for _, v := range slices.SortedFunc(maps.Keys(g), compare) {
		if color[v] == white && dfs(v) {
			return cycle
		}
	}
	return nil
}
