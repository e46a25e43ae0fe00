package routing

import (
	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/topology"
)

// Planner is the messaging-layer half of Software-Based routing: it rewrites
// the header of an absorbed message so that, once re-injected, the message
// follows an alternative path around the fault region (paper §4 and
// assumption (i)).
//
// The paper summarises the decision tables as: "When a message encounters a
// fault, it is first re-routed in the same dimension in the opposite
// direction. If another fault is encountered, the message is routed in an
// orthogonal dimension in an attempt to route around the faulty regions."
// Planner realises that as three escalating tables:
//
//	T1 (reverse):    first fault in dimension d travelling s — force
//	                 direction -s in d (the torus ring reaches the same
//	                 coordinate the other way around).
//	T2 (orthogonal): repeated fault in d — consult the coalesced region of
//	                 the blocking node and set an intermediate destination
//	                 in the plane-partner dimension just clearing the
//	                 region's extent.
//	T3 (history):    the per-message absorption history bounds livelock:
//	                 when the heuristics run out, compute an exact detour
//	                 (breadth-first search in the current 2-D plane, falling
//	                 back to the full healthy network) and install it as a
//	                 chain of intermediate destinations. T3 is what makes
//	                 delivery guaranteed for any fault pattern that does not
//	                 disconnect the network (assumption (h)).
//
// All intermediate destinations are realised as absorb-and-reinject stops,
// so every in-network worm is a plain e-cube worm: the channel dependency
// graph stays acyclic exactly as in the 2-D proof the paper inherits.
type Planner struct {
	t   topology.Network
	f   *fault.Set
	idx *fault.Index
	// escalateAfter bounds the heuristic phase: once a message has been
	// absorbed more than this many times, Plan goes straight to the exact
	// detour. The paper notes livelock freedom "depends on the location and
	// shape of the fault patterns"; this is the history table (T3) bound
	// that turns that caveat into a guarantee. Zero means DefaultEscalation.
	escalateAfter int
}

// DefaultEscalation is the default absorption count after which the exact
// planner takes over from the reverse/orthogonal heuristics. T1 uses one
// absorption and each T2 detour one more; six tries covers every benign
// pattern in the paper while bounding pathological concave combinations.
const DefaultEscalation = 6

// partner returns the orthogonal dimension paired with d by the SW-Based-nD
// pairwise plane discipline (the loop "for i = 1..n-1: route2D(dim i, dim
// i+1)"): the successor dimension, except for the last dimension whose
// partner is its predecessor. Returns -1 for 1-dimensional networks.
func partner(d, n int) int {
	if n < 2 {
		return -1
	}
	if d+1 < n {
		return d + 1
	}
	return d - 1
}

// maxRun is the longest straight run installed per via-chain segment. On a
// torus it is strictly less than k/2 so the minimal-direction rule
// reproduces the intended direction exactly; a mesh line has a unique
// direction, so whole-line runs are safe.
func (p *Planner) maxRun() int {
	if !p.t.Wraps() {
		return p.t.K() - 1
	}
	return (p.t.K() - 1) / 2
}

// escalation is the absorption count past which Plan skips the heuristics
// and installs an exact detour immediately.
func (p *Planner) escalation() int {
	if p.escalateAfter > 0 {
		return p.escalateAfter
	}
	return DefaultEscalation
}

// Plan rewrites m's header after absorption at cur, where the move along
// (blockedDim, blockedDir) led to a fault. It reports false when no route
// exists (the fault pattern disconnects cur from the destination, which
// assumption (h) excludes); the caller should then drop the message.
func (p *Planner) Plan(cur topology.NodeID, m *message.Message, blockedDim int, blockedDir topology.Dir) bool {
	m.Faulted = true
	m.Absorptions++

	if m.Absorptions > p.escalation() {
		return p.planExact(cur, m)
	}

	d, s := blockedDim, blockedDir
	// T1: reverse within the same dimension. Reversal relies on the ring
	// closing — the opposite way around reaches the same coordinate — so it
	// is skipped entirely on non-wrapping topologies (mesh), where walking
	// away from the target can only end at a dead edge.
	if p.t.Wraps() && !m.Reversed[d] {
		m.Reversed[d] = true
		m.DirOverride[d] = s.Opposite()
		if !p.f.LinkFaulty(cur, topology.PortFor(d, s.Opposite())) {
			return true
		}
		// Both directions blocked right here: escalate immediately.
	}
	// T2: orthogonal detour around the blocking region.
	o := partner(d, p.t.N())
	if o >= 0 && p.orthoDetour(cur, m, d, s, o) {
		return true
	}
	// T3: exact in-plane detour, then whole-network fallback.
	if o >= 0 && p.planePath(cur, m, d, o) {
		return true
	}
	return p.planExact(cur, m)
}

// orthoDetour implements table T2: install an intermediate destination that
// steers the message around the blocking region through the plane-partner
// dimension o.
//
// The via's o-coordinate sits just past the region's extent in o (nearer
// side first). Its d-coordinate depends on the e-cube dimension order:
//
//   - o > d (the blocked dimension is corrected first): the via keeps the
//     current d-coordinate. After the via pops, the d-walk resumes in the
//     cleared o-row.
//
//   - o < d (the partner is corrected first, e.g. blocked in the plane's
//     second dimension): the via must also advance past the region in d,
//     otherwise e-cube walks o straight back and re-blocks — the message
//     sidesteps into the cleared o-column, rides it past the region in d,
//     and only then returns in o.
//
// The original direction in d is re-imposed so the message continues past
// the region the way it was going.
func (p *Planner) orthoDetour(cur topology.NodeID, m *message.Message, d int, s topology.Dir, o int) bool {
	k := p.t.K()
	blocking := p.t.Neighbor(cur, d, s)
	if blocking < 0 {
		// The blocked move points off a mesh edge: there is no region to
		// steer around, only the heuristics' dead end. Defer to T3.
		return false
	}
	var ivO, ivD fault.Interval
	if reg := p.idx.Of(blocking); reg != nil {
		ivO = reg.Extent(o)
		ivD = reg.Extent(d)
	} else {
		// Pure link fault: the "region" is the blocking endpoint alone.
		ivO = fault.Interval{Lo: p.t.Coord(cur, o), Hi: p.t.Coord(cur, o)}
		c := p.t.Coord(blocking, d)
		ivD = fault.Interval{Lo: c, Hi: c}
	}
	if ivO.Len(k) >= k || ivD.Len(k) >= k {
		return false // region spans a whole ring; the heuristic can't clear it
	}
	dCoord := p.t.Coord(cur, d)
	if o < d {
		// Ride past the region in d within the cleared column.
		if s == topology.Plus {
			dCoord = (ivD.Hi + 1) % k
		} else {
			dCoord = (ivD.Lo - 1 + k) % k
		}
	}
	rowAboveHi := (ivO.Hi + 1) % k
	rowBelowLo := (ivO.Lo - 1 + k) % k
	curRow := p.t.Coord(cur, o)
	rows := []int{rowAboveHi, rowBelowLo}
	if p.t.RingDist(curRow, rowBelowLo) < p.t.RingDist(curRow, rowAboveHi) {
		rows[0], rows[1] = rows[1], rows[0]
	}
	savedDir := m.DirOverride[d]
	savedRev := m.Reversed[d]
	for _, row := range rows {
		coords := p.t.Coords(cur)
		coords[o] = row
		coords[d] = dCoord
		via := p.t.FromCoords(coords)
		if via == cur || p.f.NodeFaulty(via) {
			continue
		}
		// Check the exact walk the router will take under the overrides as
		// they will be at re-injection.
		m.DirOverride[d] = s
		m.Reversed[d] = true
		if !p.segmentClear(cur, via, &m.DirOverride) {
			m.DirOverride[d] = savedDir
			m.Reversed[d] = savedRev
			continue
		}
		m.PushVia(via)
		return true
	}
	return false
}

// segmentClear walks the deterministic router from 'from' to 'to' under the
// given direction overrides and reports whether every channel it takes is
// usable: the question Route will ask at each hop. It reports false when the
// walk fails to converge (defensive; cannot happen with consistent state).
func (p *Planner) segmentClear(from, to topology.NodeID, override *[message.MaxDims]topology.Dir) bool {
	cur := from
	for hops := 0; cur != to; hops++ {
		dim, dir, ok := detNextMove(p.t, cur, to, override)
		if !ok || hops == p.t.N()*p.t.K() || p.f.LinkFaulty(cur, topology.PortFor(dim, dir)) {
			return false
		}
		cur = p.t.Neighbor(cur, dim, dir)
	}
	return true
}

// planePath implements the in-plane half of table T3: an exact shortest
// detour within the 2-D plane spanned by (d, o) through cur, targeting the
// projection of the message's target onto the plane.
func (p *Planner) planePath(cur topology.NodeID, m *message.Message, d, o int) bool {
	target := m.Target()
	coords := p.t.Coords(cur)
	coords[d] = p.t.Coord(target, d)
	coords[o] = p.t.Coord(target, o)
	proj := p.t.FromCoords(coords)
	if p.f.NodeFaulty(proj) {
		return false
	}
	if proj == cur {
		return false
	}
	pl := topology.PlaneOf(p.t, cur, d, o)
	path := p.f.ShortestPath(cur, proj, pl.Contains)
	if path == nil {
		return false
	}
	p.installChain(m, path)
	return true
}

// planExact is the whole-network half of T3: discard accumulated header
// state and install an exact fault-free route to the final destination.
func (p *Planner) planExact(cur topology.NodeID, m *message.Message) bool {
	m.Via = m.Via[:0]
	path := p.f.ShortestPath(cur, m.Dst, nil)
	if path == nil {
		return false
	}
	p.installChain(m, path)
	return true
}

// installChain converts an explicit node path into a stack of intermediate
// destinations: one via per straight-run corner, runs capped at maxRun so
// each segment is strictly minimal and the deterministic router reproduces
// the path exactly. Accumulated direction overrides are discarded — the
// chain supersedes the heuristics that produced them.
func (p *Planner) installChain(m *message.Message, path []topology.NodeID) {
	for i := range m.DirOverride {
		m.DirOverride[i] = 0
		m.Reversed[i] = false
	}
	var corners []topology.NodeID
	runDim, runLen := -1, 0
	for i := 1; i < len(path); i++ {
		dim := -1
		for dd := 0; dd < p.t.N(); dd++ {
			if p.t.Coord(path[i-1], dd) != p.t.Coord(path[i], dd) {
				dim = dd
				break
			}
		}
		if dim != runDim || runLen >= p.maxRun() {
			if i > 1 {
				corners = append(corners, path[i-1])
			}
			runDim, runLen = dim, 0
		}
		runLen++
	}
	corners = append(corners, path[len(path)-1])
	// Push in reverse so the first corner ends up on top of the stack.
	for i := len(corners) - 1; i >= 0; i-- {
		if corners[i] == m.Dst {
			continue
		}
		m.PushVia(corners[i])
	}
}
