// Package router models the wormhole router microarchitecture of §2 of the
// paper: per-virtual-channel flit FIFOs on every input port, output virtual
// channels with credit-based flow control, and the crossbar constraint of
// one flit per physical channel per cycle.
//
// The package holds state and per-router operations only; the cycle-level
// engine that wires routers together and applies the routing algorithms
// lives in internal/network.
//
// Storage is an arena: NewSlab carves every router's lanes, output VCs,
// arbitration pointers, lane sets and request words out of a handful of
// contiguous slabs, so building N routers costs a constant number of
// allocations and a cycle walks memory in address order. A lane's record
// carries the first two slots of its flit ring inline — the whole buffer at
// the paper's depth of 2 — so a hop touches one 16-byte record per lane,
// and that record is all a lane keeps: a blocked head registers in its
// route bytes, unused while it holds no route, and the fault-transition
// purge derives a route's owner from the flits (internal/network). Nothing
// on a per-flit path divides by a runtime value: lanes and output VCs decode
// through a shared lookup table and ring indices wrap by
// compare-and-subtract.
package router

import (
	"fmt"
	"iter"
	"math"
	"math/bits"

	"repro/internal/message"
	"repro/internal/topology"
)

// inline is the number of flit slots a lane record carries.
const inline = 2

// MaxV and MaxDepth bound the VCs per port and the flits per lane: a lane's
// route names its output VC, its ring its head and size, and an output VC
// its credits, in a byte each.
const (
	MaxV     = math.MaxUint8
	MaxDepth = math.MaxUint8
)

// InVC is one input virtual channel: its flit ring — the first two slots
// inline, the rest in the router's overflow window — plus the route held by
// the worm currently at its front. The route persists from head-flit
// allocation until the tail flit leaves (wormhole channel reservation);
// whether one is held is the router's routed set (HasRoute), not a field,
// so a phase can select its lanes a word at a time. An inline slot is a
// flit taken apart: its Ref in ref, its packed sequence word in seq.
// 16 bytes per lane: four records a cache line, none straddling one.
type InVC struct {
	ref [inline]message.Ref
	seq [inline]uint16
	// OutPort/OutVC are the allocated route while HasRoute. OutPort ==
	// EjectPort() routes the worm to the local ejection port (delivery or
	// software absorption), and OutVC is then meaningless. On a lane without
	// a route they hold its head's registration (Block): the port bits and
	// the VC bits of its candidates, kept after a release wakes the head and
	// zeroed wherever the registration could stop describing the front —
	// ClearRoute, a FilterLane that drops flits, Unblock — so they are
	// nonzero only while the head that registered is the front and the fault
	// set is the one it registered under (Repark).
	OutPort, OutVC uint8
	// head/size index the ring: slots below inline are inline, the rest in
	// the overflow window.
	head, size uint8
}

// NoHolder is OutVC.Holder while no lane is parked on the VC.
const NoHolder = math.MaxUint16

// OutVC is one output virtual channel: ownership (a worm holds it from head
// allocation to tail traversal) and the credit count mirroring free space in
// the downstream input buffer — at most MaxDepth, so a byte. Holder is the
// input lane parked on this VC at Credits == 0 (Starve), NoHolder when none
// is; the next Credit wakes it. 4 bytes.
type OutVC struct {
	Credits uint8
	Busy    bool
	Holder  uint16
}

// Waiting reports whether a lane is parked on the VC.
func (v OutVC) Waiting() bool { return v.Holder != NoHolder }

// Lane identifies one input virtual channel of a router as port*V + vc.
// The encoding makes ascending lane order identical to the
// port-major/VC-minor order of a dense nested scan, which is what keeps
// the engine's lane sets rng-transparent: iterating a set's bits low to
// high visits lanes exactly as the dense scan would.
type Lane int32

// portVC is one entry of the shared lane → (port, vc) decode table.
type portVC struct{ port, vc uint8 }

// Lane-set word layout: each 64-lane group owns setStride adjacent words
// (active, routed, blocked, starved), so a router with up to 64 lanes reads
// all its scheduling state from half a cache line, at a power-of-two stride.
const (
	setActive = iota
	setRouted
	setBlocked
	setStarved
	setStride
)

// Router is the per-node switching element. Ports are indexed as in
// internal/topology: network ports 0..2n-1, then the injection input port
// (index 2n). The ejection output port needs no per-VC state (it drains to
// the PE) and is represented implicitly; it shares index 2n (EjectPort)
// with the injection port, which is input-only. Every slice is a window
// into a slab shared with the other routers of the same NewSlab call, and
// what is not a per-router window is reached through shared. 120 bytes.
type Router struct {
	ID topology.NodeID
	// In is indexed by Lane; the last V lanes are the injection port's.
	In []InVC
	// Out is indexed by port*V + vc (OutIndex); network ports only.
	Out []OutVC
	// RROut holds the round-robin arbitration pointer per output port: a
	// requester rank, below the lane count (at most 64 ports × MaxV).
	RROut []uint16
	// sets holds four lane sets, interleaved per 64-lane group:
	//   active  — the lane buffers at least one flit (Push sets, the pop
	//             that drains it clears: always exact, so there is no
	//             merge or retire step, and no flit count besides);
	//   routed  — the front worm holds a route (SetRoute/ClearRoute);
	//   blocked — the front is a head whose candidates were all busy at
	//             its last routing attempt (Block); the Release of one of
	//             them, Unblock or FilterLane of the lane clears it;
	//   starved — the lane's route leads to an output VC the arbiter found
	//             at Credits == 0 (Starve); the VC's next Credit, its
	//             Release, the lane's ClearRoute or a Resync clears it.
	// Past its length, up to its capacity, the window continues with the
	// per-port request words (reqs), after the sets so they keep their
	// stride: each 64-lane group owns one word per network output port plus
	// one for ejection (the last), and bit l of word p is set while lane l
	// holds a route to port p — the transpose of In[].OutPort over the
	// routed set, which is what lets the arbiter read a port's requesters
	// instead of gathering them.
	sets   []uint64
	shared *shared
	v      int32
	depth  int32
}

// shared is what every router of one NewSlab call reads alike.
type shared struct {
	// decode maps a lane id to its (port, vc); output VCs are numbered the
	// same way (OutIndex), so it decodes those too.
	decode []portVC
	// ovf holds ring slots inline.. of every lane of the slab, depth-inline
	// per lane, router by router from the one with ID first. Nil at depth
	// <= inline.
	ovf   []message.Flit
	first topology.NodeID
}

// NewSlab builds one router per node id 0..nodes-1 of an n-dimensional
// network with v virtual channels per port and per-VC buffers of bufDepth
// flits, all carved from shared slabs (a constant number of allocations).
func NewSlab(nodes, n, v, bufDepth int) []Router {
	if bufDepth < 1 {
		panic(fmt.Sprintf("router: buffer capacity must be >= 1, got %d", bufDepth))
	}
	degree := 2 * n
	lanes := (degree + 1) * v
	// A VC and a ring index must fit a byte of InVC, a credit count one of
	// OutVC, the ports (ejection included) one ReadyPorts mask; a lane id
	// then fits OutVC.Holder below NoHolder.
	if v < 1 || v > MaxV || degree+1 > 64 || bufDepth > MaxDepth {
		panic(fmt.Sprintf("router: unsupported geometry n=%d v=%d bufDepth=%d", n, v, bufDepth))
	}
	words := (lanes + 63) / 64
	decode := make([]portVC, lanes)
	for l := range decode {
		decode[l] = portVC{port: uint8(l / v), vc: uint8(l % v)}
	}
	sh := &shared{decode: decode}
	if bufDepth > inline {
		sh.ovf = make([]message.Flit, nodes*lanes*(bufDepth-inline))
	}
	rs := make([]Router, nodes)
	in := make([]InVC, nodes*lanes)
	out := make([]OutVC, nodes*degree*v)
	for i := range out {
		// Credits start at the downstream buffer depth; symmetric network,
		// so it equals our own bufDepth.
		out[i] = OutVC{Credits: uint8(bufDepth), Holder: NoHolder}
	}
	rr := make([]uint16, nodes*degree)
	setWords, win := words*setStride, words*(setStride+degree+1)
	sets := make([]uint64, nodes*win)
	for id := range rs {
		rs[id] = Router{
			ID:     topology.NodeID(id),
			In:     window(in, id, lanes),
			Out:    window(out, id, degree*v),
			RROut:  window(rr, id, degree),
			sets:   sets[id*win : id*win+setWords : (id+1)*win],
			shared: sh,
			v:      int32(v),
			depth:  int32(bufDepth),
		}
	}
	return rs
}

// window returns the i-th n-element window of a slab, capped so an append
// can never run into the next router's.
func window[T any](slab []T, i, n int) []T { return slab[i*n : (i+1)*n : (i+1)*n] }

// New builds one stand-alone router (a slab of one) with the given id.
func New(id topology.NodeID, n, v, bufDepth int) *Router {
	r := &NewSlab(1, n, v, bufDepth)[0]
	r.ID, r.shared.first = id, id
	return r
}

// InjectionPort returns the index of this router's injection input port.
func (r *Router) InjectionPort() int { return len(r.RROut) }

// EjectPort is the OutPort of a lane routed to the local ejection port; it
// is also the port index RequestWord reads ejection under.
func (r *Router) EjectPort() int { return len(r.RROut) }

// ToEject reports whether lane l's route (valid while HasRoute) leads to
// the ejection port.
func (r *Router) ToEject(l Lane) bool { return int(r.In[l].OutPort) == len(r.RROut) }

// LaneOf encodes (port, vc) as a lane id.
func (r *Router) LaneOf(port, vc int) Lane { return Lane(port*int(r.v) + vc) }

// OutIndex is the index into Out of output VC (port, vc).
func (r *Router) OutIndex(port topology.Port, vc int) int { return int(port)*int(r.v) + vc }

// LanePortVC decodes a lane id into its (port, vc) pair.
func (r *Router) LanePortVC(l Lane) (port, vc int) {
	d := r.shared.decode[l]
	return int(d.port), int(d.vc)
}

// Words returns the number of 64-lane groups; word i of a lane set covers
// lanes 64i..64i+63.
func (r *Router) Words() int { return len(r.sets) / setStride }

// RouteWord returns word i of the lanes the route phase must look at:
// buffered, front worm unrouted, not blocked.
func (r *Router) RouteWord(i int) uint64 {
	s := r.sets[i*setStride : i*setStride+setStride]
	return s[setActive] &^ s[setRouted] &^ s[setBlocked]
}

// SwitchWord returns word i of the lanes that ask for the switch: buffered
// and routed. A port's arbitration ranks count all of them, credit-parked
// or not.
func (r *Router) SwitchWord(i int) uint64 {
	s := r.sets[i*setStride : i*setStride+setStride]
	return s[setActive] & s[setRouted]
}

// ReadyWord returns word i of the lanes the switch phase must look at:
// buffered, routed, not parked on a credit.
func (r *Router) ReadyWord(i int) uint64 {
	s := r.sets[i*setStride : i*setStride+setStride]
	return s[setActive] & s[setRouted] &^ s[setStarved]
}

// reqs returns the router's request words (see sets).
func (r *Router) reqs() []uint64 { return r.sets[len(r.sets):cap(r.sets)] }

// RequestWord returns word i of the lanes holding a route to output port p;
// p == EjectPort() selects the lanes routed to ejection.
func (r *Router) RequestWord(i, p int) uint64 { return r.reqs()[i*(len(r.RROut)+1)+p] }

// EjectWord returns word i of the lanes that drain to the ejection port
// this cycle: buffered and routed there (per-VC ejection, no arbitration,
// no credits).
func (r *Router) EjectWord(i int) uint64 {
	return r.SwitchWord(i) & r.RequestWord(i, len(r.RROut))
}

// ReadyPorts returns the output ports with a requester the switch can
// serve this cycle — a buffered lane routed there and not parked on a
// credit — as a bit mask; bit InjectionPort() stands for ejection.
func (r *Router) ReadyPorts() uint64 {
	ports, q, req := uint64(0), 0, r.reqs()
	for g := 0; g < len(r.sets); g += setStride {
		ready := r.sets[g+setActive] & r.sets[g+setRouted] &^ r.sets[g+setStarved]
		for p := 0; p <= len(r.RROut); p++ {
			if ready&req[q] != 0 {
				ports |= 1 << uint(p)
			}
			q++
		}
	}
	return ports
}

// Grant arbitrates output physical channel p for this cycle — one flit per
// channel per cycle, round-robin over the competing input VCs — and
// returns the lane that may send its front flit, if any. The requesters
// are read, not gathered: per 64-lane group, the buffered routed lanes
// whose request bit for p is set, ranked in ascending lane order, n in all.
// Credit-parked lanes are counted and ranked — a parked lane still
// competes, it just cannot win — but never visited. The walk starts at rank
// k = RROut mod n (RROut is below the previous cycle's n, so the
// compare-and-subtract rarely runs twice) and wraps: the k lowest
// requesters are peeled off the word holding rank k, which splits its
// unparked candidates into those to visit first and those to visit last,
// and every candidate is then visited once, in walk order. The walk parks
// each candidate it finds without a credit (Starve) and grants the first
// that has one — the only one whose rank is computed — leaving RROut just
// past it. With no grant RROut stays. With at most one candidate to visit
// the start does not matter and nothing is peeled. Parking on the failed
// attempt, not on the debit, keeps a worm streaming at one credit per cycle
// out of the starved set entirely.
func (r *Router) Grant(p int) (Lane, bool) {
	if len(r.sets) != setStride {
		return r.grantWords(p)
	}
	// At most 64 lanes — every paper geometry: the walk, straight-line.
	s := r.sets[:cap(r.sets)]
	c := s[setActive] & s[setRouted] & s[setStride+p]
	// m holds the candidates to visit now, last those below rank k.
	m, last := c&^s[setStarved], uint64(0)
	n := bits.OnesCount64(c)
	if m&(m-1) != 0 {
		k := int(r.RROut[p])
		for k >= n {
			k -= n
		}
		x := c
		for ; k > 0; k-- {
			x &= x - 1
		}
		below := x&-x - 1
		m, last = m&^below, m&below
	}
	for {
		for ; m != 0; m &= m - 1 {
			l := Lane(bits.TrailingZeros64(m))
			o := p*int(r.v) + int(r.In[l].OutVC)
			if r.Out[o].Credits == 0 {
				r.Starve(l, o)
				continue
			}
			rank := bits.OnesCount64(c&(m&-m-1)) + 1
			if rank == n {
				rank = 0
			}
			r.RROut[p] = uint16(rank)
			return l, true
		}
		if last == 0 {
			return 0, false
		}
		m, last = last, 0
	}
}

// grantWords is Grant's walk over any number of lane-set words.
func (r *Router) grantWords(p int) (Lane, bool) {
	words := len(r.sets) / setStride
	n, ready := 0, 0
	for w := 0; w < words; w++ {
		c := r.requesters(w, p)
		n += bits.OnesCount64(c)
		ready += bits.OnesCount64(c &^ r.sets[w*setStride+setStarved])
	}
	// The walk starts in word w0, above its `below` bits, and ends on them.
	w0, below := 0, uint64(0)
	if ready > 1 {
		k := int(r.RROut[p])
		for k >= n {
			k -= n
		}
		c := r.requesters(0, p)
		for cnt := bits.OnesCount64(c); k >= cnt; cnt = bits.OnesCount64(c) {
			k -= cnt
			w0++
			c = r.requesters(w0, p)
		}
		for ; k > 0; k-- {
			c &= c - 1
		}
		below = c&-c - 1
	}
	for leg, w := 0, w0; leg <= words; leg++ {
		c := r.requesters(w, p)
		m := c &^ r.sets[w*setStride+setStarved]
		if leg == 0 {
			m &^= below
		} else if leg == words {
			m &= below
		}
		for ; m != 0; m &= m - 1 {
			l := Lane(w<<6 + bits.TrailingZeros64(m))
			o := p*int(r.v) + int(r.In[l].OutVC)
			if r.Out[o].Credits == 0 {
				r.Starve(l, o)
				continue
			}
			rank := bits.OnesCount64(c&(m&-m-1)) + 1
			for i := 0; i < w; i++ {
				rank += bits.OnesCount64(r.requesters(i, p))
			}
			if rank == n {
				rank = 0
			}
			r.RROut[p] = uint16(rank)
			return l, true
		}
		if w++; w == words {
			w = 0
		}
	}
	return 0, false
}

// requesters returns word w of the lanes competing for output port p:
// buffered, routed there, credit-parked or not.
func (r *Router) requesters(w, p int) uint64 {
	return r.sets[w*setStride+setActive] & r.sets[w*setStride+setRouted] & r.RequestWord(w, p)
}

// request returns the request word lane l's route (In[l]) selects.
func (r *Router) request(l Lane) *uint64 {
	return &r.reqs()[int(l>>6)*(len(r.RROut)+1)+int(r.In[l].OutPort)]
}

// set returns the word of lane set `which` that holds lane l, and l's bit
// in it.
func (r *Router) set(which int, l Lane) (*uint64, uint64) {
	return &r.sets[int(l>>6)*setStride+which], 1 << (uint(l) & 63)
}

// HasRoute reports whether lane l's front worm holds a route.
func (r *Router) HasRoute(l Lane) bool {
	w, bit := r.set(setRouted, l)
	return *w&bit != 0
}

// SetRoute records that lane l's front worm now holds the route described
// by In[l], which must not change until ClearRoute.
func (r *Router) SetRoute(l Lane) {
	w, bit := r.set(setRouted, l)
	*w |= bit
	*r.request(l) |= bit
}

// ClearRoute drops lane l's route (the tail left, or the worm was purged),
// and with it the lane's request bit and credit-parking mark; the route
// bytes are zeroed, so the next head starts without a registration.
func (r *Router) ClearRoute(l Lane) {
	w, bit := r.set(setRouted, l)
	*w &^= bit
	*r.request(l) &^= bit
	if r.Starved(l) {
		r.wake(r.outOf(l))
	}
	r.In[l].OutPort, r.In[l].OutVC = 0, 0
}

// outOf returns the output VC lane l's route (In[l], not to ejection) leads
// to.
func (r *Router) outOf(l Lane) *OutVC {
	return &r.Out[r.OutIndex(topology.Port(r.In[l].OutPort), int(r.In[l].OutVC))]
}

// Starved reports whether lane l is parked by Starve.
func (r *Router) Starved(l Lane) bool {
	w, bit := r.set(setStarved, l)
	return *w&bit != 0
}

// Starve parks lane l, whose route leads to output VC o (an OutIndex) the
// arbiter just found at Credits == 0: the lane cannot move until a credit
// comes back, and Credit(o) is the one place that happens.
func (r *Router) Starve(l Lane, o int) {
	w, bit := r.set(setStarved, l)
	*w |= bit
	r.Out[o].Holder = uint16(l)
}

// wake drops the credit-parking mark held on output VC v, if any.
func (r *Router) wake(v *OutVC) {
	if v.Waiting() {
		w, bit := r.set(setStarved, Lane(v.Holder))
		*w &^= bit
		v.Holder = NoHolder
	}
}

// Credit returns one credit to output VC o and wakes the lane parked on it.
// Commit-phase only: a credit applied while routers are being visited would
// be visible to a later-visited router in the same cycle.
func (r *Router) Credit(o int) {
	v := &r.Out[o]
	v.Credits++
	r.wake(v)
}

// Resync wakes every credit-parked lane of the router: a fault transition
// rewrites credit counts and ownership directly, so every parked lane must
// look at its output VC again.
func (r *Router) Resync() {
	for g := setStarved; g < len(r.sets); g += setStride {
		for m := r.sets[g]; m != 0; m &= m - 1 {
			r.outOf(Lane(g/setStride<<6 + bits.TrailingZeros64(m))).Holder = NoHolder
		}
		r.sets[g] = 0
	}
}

// IdleLane returns the first lane in [from, to) that neither buffers a flit
// nor holds a route, or -1 when there is none.
func (r *Router) IdleLane(from, to Lane) Lane {
	for l := from; l < to; l = (l>>6 + 1) << 6 {
		s := r.sets[int(l>>6)*setStride : int(l>>6)*setStride+setStride]
		if m := ^(s[setActive] | s[setRouted]) >> (uint(l) & 63); m != 0 {
			if l += Lane(bits.TrailingZeros64(m)); l < to {
				return l
			}
			return -1
		}
	}
	return -1
}

// Blocked reports whether lane l is parked by Block.
func (r *Router) Blocked(l Lane) bool {
	w, bit := r.set(setBlocked, l)
	return *w&bit != 0
}

// WaitBit returns output VC (port, vc)'s bits in a blocked lane's
// registration: bit port of the low byte and bit vc of the high one, each
// saturating at 7. A registration is the union of its candidates' bits, so
// it also covers every port × VC pairing of them, and ports or VCs from 7 up
// share a bit: a release under it now and then wakes a head for a VC it
// cannot use, which then looks once and parks again.
func WaitBit(port, vc int) uint16 { return uint16(waitBit(port)) | uint16(waitBit(vc))<<8 }

// waitBit is one half of WaitBit.
func waitBit(i int) uint8 { return 1 << min(uint(i), 7) }

// Waits returns lane l's registration, meaningful while it is Blocked.
func (r *Router) Waits(l Lane) uint16 { return uint16(r.In[l].OutPort) | uint16(r.In[l].OutVC)<<8 }

// Block parks lane l: its head found every candidate output VC busy, and
// asking again can only give a different answer after one of those
// candidates is released (Release) or the fault set changes (Unblock).
// waits registers the candidates, the union of WaitBit over them. It lives
// in the lane's route bytes, which a lane without a route does not use.
func (r *Router) Block(l Lane, waits uint16) {
	w, bit := r.set(setBlocked, l)
	*w |= bit
	q := &r.In[l]
	q.OutPort, q.OutVC = uint8(waits), uint8(waits>>8)
}

// Unblock wakes every parked lane of the router and drops every
// registration — those of heads a release has already woken too: the fault
// set changed, and with it the candidates a head's Route returns.
func (r *Router) Unblock() {
	for i := setBlocked; i < len(r.sets); i += setStride {
		r.sets[i] = 0
	}
	for l := range r.In {
		if !r.HasRoute(Lane(l)) {
			r.In[l].OutPort, r.In[l].OutVC = 0, 0
		}
	}
}

// Repark parks lane l again, under the registration it holds, when every
// output VC the registration covers is busy, and reports whether it did.
// The lane's front must be an unrouted head. A registration covers every
// port × VC pairing of its bits (WaitBit), so it covers the candidates
// Route returned for that head, and while it is held Route would return
// them again (see OutPort): with all of them busy, asking again could only
// park the head again. A lane without a registration is not parked.
func (r *Router) Repark(l Lane) bool {
	q := &r.In[l]
	if q.OutPort == 0 || q.OutVC == 0 {
		return false
	}
	v := int(r.v)
	for p := range r.RROut {
		if q.OutPort&waitBit(p) == 0 {
			continue
		}
		for vm := uint(q.OutVC); vm != 0; vm &= vm - 1 {
			vc := bits.TrailingZeros(vm)
			last := vc
			if vc == 7 {
				last = v - 1
			}
			for ; vc <= last; vc++ {
				if !r.Out[p*v+vc].Busy {
					return false
				}
			}
		}
	}
	w, bit := r.set(setBlocked, l)
	*w |= bit
	return true
}

// Release frees output VC o (as indexed by OutIndex) and wakes the lanes
// parked on it: the heads blocked with both o's port bit and its VC bit
// registered may now take it, and a lane credit-parked on o no longer holds
// it.
func (r *Router) Release(o int) {
	v := &r.Out[o]
	v.Busy = false
	r.wake(v)
	d := r.shared.decode[o]
	pb, vb := waitBit(int(d.port)), waitBit(int(d.vc))
	for g := setBlocked; g < len(r.sets); g += setStride {
		for m := r.sets[g]; m != 0; m &= m - 1 {
			if q := &r.In[g/setStride<<6+bits.TrailingZeros64(m)]; q.OutPort&pb != 0 && q.OutVC&vb != 0 {
				r.sets[g] &^= m & -m
			}
		}
	}
}

// Lanes iterates the active lanes (those buffering flits) in ascending
// (port, vc) order.
func (r *Router) Lanes() iter.Seq2[int, Lane] {
	return func(yield func(int, Lane) bool) {
		n := 0
		for i := 0; i < len(r.sets); i += setStride {
			for m := r.sets[i+setActive]; m != 0; m &= m - 1 {
				if !yield(n, Lane(i/setStride<<6+bits.TrailingZeros64(m))) {
					return
				}
				n++
			}
		}
	}
}

// LaneCount returns the number of active lanes.
func (r *Router) LaneCount() int {
	n := 0
	for i := setActive; i < len(r.sets); i += setStride {
		n += bits.OnesCount64(r.sets[i])
	}
	return n
}

// EnableLaneTracking, MergeLanes and RetireLanes are what remains of the
// sorted-slice lane worklist for callers written against it: the active
// set is always maintained and always exact, so there is nothing to
// enable, merge or retire. RetireLanes still reports the active count.
func (r *Router) EnableLaneTracking() {}
func (r *Router) MergeLanes()         {}
func (r *Router) RetireLanes() int    { return r.LaneCount() }

// Buffered reports whether any lane of the router holds a flit — the
// activity signal the engine uses to skip and retire idle routers.
func (r *Router) Buffered() bool {
	return r.sets[setActive] != 0 || len(r.sets) > setStride && r.LaneCount() > 0
}

// Len returns the number of flits buffered in lane l.
func (r *Router) Len(l Lane) int { return int(r.In[l].size) }

// Space returns the number of free slots in lane l.
func (r *Router) Space(l Lane) int { return int(r.depth) - int(r.In[l].size) }

// Front returns the flit at the head of lane l without removing it; ok is
// false when the lane is empty.
func (r *Router) Front(l Lane) (message.Flit, bool) {
	if r.In[l].size == 0 {
		return message.Flit{}, false
	}
	return r.get(l, 0), true
}

// slot returns the ring index of lane l's i-th buffered flit: below inline
// it is in the lane record, from inline on in the lane's overflow window.
func (r *Router) slot(l Lane, i int) int {
	i += int(r.In[l].head)
	if i >= int(r.depth) {
		i -= int(r.depth)
	}
	return i
}

// overflow returns ring slot i (at least inline) of lane l, whose slab
// index is the router's rank in the slab times its lane count, plus l.
func (r *Router) overflow(l Lane, i int) *message.Flit {
	lane := int(r.ID-r.shared.first)*len(r.In) + int(l)
	return &r.shared.ovf[lane*(int(r.depth)-inline)+i-inline]
}

// get returns lane l's i-th buffered flit.
func (r *Router) get(l Lane, i int) message.Flit {
	if i = r.slot(l, i); i < inline {
		q := &r.In[l]
		return message.PackedFlit(q.ref[i], q.seq[i])
	}
	return *r.overflow(l, i)
}

// put stores f as lane l's i-th buffered flit.
func (r *Router) put(l Lane, i int, f message.Flit) {
	if i = r.slot(l, i); i < inline {
		q := &r.In[l]
		q.ref[i], q.seq[i] = f.Ref(), f.Packed()
		return
	}
	*r.overflow(l, i) = f
}

// PushLane appends a flit to lane l and updates the active set; it panics
// on overflow (credits must prevent it).
func (r *Router) PushLane(l Lane, f message.Flit) {
	q := &r.In[l]
	if int32(q.size) == r.depth {
		panic("router: flit buffer overflow (credit accounting broken)")
	}
	r.put(l, int(q.size), f)
	q.size++
	w, bit := r.set(setActive, l)
	*w |= bit
}

// PopLane removes and returns the front flit of lane l and, when the lane
// drains, clears it from the active set; it panics when empty.
func (r *Router) PopLane(l Lane) message.Flit {
	q := &r.In[l]
	if q.size == 0 {
		panic("router: pop from empty flit buffer")
	}
	f := r.get(l, 0)
	if q.head++; int32(q.head) == r.depth {
		q.head = 0
	}
	q.size--
	if q.size == 0 {
		w, bit := r.set(setActive, l)
		*w &^= bit
	}
	return f
}

// Push places a flit into input (port, vc); see PushLane.
func (r *Router) Push(port, vc int, f message.Flit) { r.PushLane(r.LaneOf(port, vc), f) }

// Pop removes the front flit from input (port, vc); see PopLane.
func (r *Router) Pop(port, vc int) message.Flit { return r.PopLane(r.LaneOf(port, vc)) }

// Each calls fn on every flit buffered in lane l, in FIFO order.
func (r *Router) Each(l Lane, fn func(message.Flit)) {
	for i := 0; i < int(r.In[l].size); i++ {
		fn(r.get(l, i))
	}
}

// FilterLane removes every flit of lane l for which drop returns true,
// preserving FIFO order of the survivors, and returns the number removed.
// The fault-transition purge uses it to pull a dead worm's flits out of
// shared buffers without disturbing interleaved worms. A lane that lost
// flits may have a new front, so its blocked mark dies with the old one,
// and so does the registration of a lane without a route.
func (r *Router) FilterLane(l Lane, drop func(message.Flit) bool) int {
	q := &r.In[l]
	kept := 0
	for i := 0; i < int(q.size); i++ {
		if f := r.get(l, i); !drop(f) {
			r.put(l, kept, f)
			kept++
		}
	}
	removed := int(q.size) - kept
	if removed == 0 {
		return 0
	}
	q.size = uint8(kept)
	w, bit := r.set(setBlocked, l)
	*w &^= bit
	if !r.HasRoute(l) {
		q.OutPort, q.OutVC = 0, 0
	}
	if kept == 0 {
		w, bit = r.set(setActive, l)
		*w &^= bit
	}
	return removed
}
