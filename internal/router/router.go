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
// flit rings, arbitration pointers and lane sets out of a handful of
// contiguous slabs, so building N routers costs a constant number of
// allocations and a cycle walks memory in address order. Nothing on a
// per-flit path divides by a runtime value: lanes decode through a shared
// lookup table and ring indices wrap by compare-and-subtract.
package router

import (
	"fmt"
	"iter"
	"math"
	"math/bits"

	"repro/internal/message"
	"repro/internal/topology"
)

// InVC is one input virtual channel: the ring indices of its flit buffer
// plus the route held by the worm currently at its front. The route
// persists from head-flit allocation until the tail flit leaves (wormhole
// channel reservation); whether one is held is the router's routed set
// (HasRoute), not a field, so a phase can select its lanes a word at a
// time. 24 bytes per lane.
type InVC struct {
	// ReadyAt is the earliest cycle the head may take its routing decision
	// (models the router decision time Td of assumption (f)).
	ReadyAt int64
	// Owner is the worm holding the route — valid only while HasRoute. The
	// fault-transition purge uses it to find every lane a dying worm has
	// reserved; steady-state routing never reads it.
	Owner message.Ref
	// OutVC/OutPort are the allocated route while HasRoute && !ToEject.
	OutVC uint16
	// head/size index the lane's ring inside the router's flit slab.
	head, size uint16
	OutPort    uint8
	// ToEject routes the worm to the local ejection port (delivery or
	// software absorption); OutPort/OutVC are meaningful otherwise.
	ToEject bool
}

// OutVC is one output virtual channel: ownership (a worm holds it from head
// allocation to tail traversal) and the credit count mirroring free space in
// the downstream input buffer.
type OutVC struct {
	Credits int32
	Busy    bool
}

// Lane identifies one input virtual channel of a router as port*V + vc.
// The encoding makes ascending lane order identical to the
// port-major/VC-minor order of a dense nested scan, which is what keeps
// the engine's lane sets rng-transparent: iterating a set's bits low to
// high visits lanes exactly as the dense scan would.
type Lane int32

// portVC is one entry of the shared lane → (port, vc) decode table.
type portVC struct {
	port uint8
	vc   uint16
}

// Lane-set word layout: each 64-lane group owns setStride adjacent words
// (active, routed, blocked), so a router with up to 64 lanes reads all its
// scheduling state from one cache line.
const (
	setActive = iota
	setRouted
	setBlocked
	setStride
)

// Router is the per-node switching element. Ports are indexed as in
// internal/topology: network ports 0..2n-1, then the injection input port
// (index 2n). The ejection output port needs no per-VC state (it drains to
// the PE) and is represented implicitly. Every slice is a window into a
// slab shared with the other routers of the same NewSlab call.
type Router struct {
	ID topology.NodeID
	// Flits counts buffered flits across all input VCs — the activity
	// signal the engine uses to skip and retire idle routers.
	Flits int
	// In is indexed by Lane; the last V lanes are the injection port's.
	In []InVC
	// Out is indexed by port*V + vc (OutIndex); network ports only.
	Out []OutVC
	// RROut holds the round-robin arbitration pointer per output port.
	RROut []int32

	v, depth int
	buf      []message.Flit // lane l's ring is buf[l*depth : (l+1)*depth]
	// sets holds three lane sets, interleaved per 64-lane group:
	//   active  — the lane buffers at least one flit (Push sets, the pop
	//             that drains it clears: always exact, so there is no
	//             merge or retire step);
	//   routed  — the front worm holds a route (SetRoute/ClearRoute);
	//   blocked — the front is a head whose candidates were all busy at
	//             its last routing attempt (Block); any Release, Unblock
	//             or FilterLane of the lane clears it.
	sets   []uint64
	decode []portVC
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
	if v < 1 || v > math.MaxUint16 || degree+1 > math.MaxUint8 || bufDepth > math.MaxUint16 {
		panic(fmt.Sprintf("router: unsupported geometry n=%d v=%d bufDepth=%d", n, v, bufDepth))
	}
	words := (lanes + 63) / 64
	decode := make([]portVC, lanes)
	for l := range decode {
		decode[l] = portVC{port: uint8(l / v), vc: uint16(l % v)}
	}
	rs := make([]Router, nodes)
	in := make([]InVC, nodes*lanes)
	out := make([]OutVC, nodes*degree*v)
	for i := range out {
		// Credits start at the downstream buffer depth; symmetric network,
		// so it equals our own bufDepth.
		out[i].Credits = int32(bufDepth)
	}
	rr := make([]int32, nodes*degree)
	buf := make([]message.Flit, nodes*lanes*bufDepth)
	sets := make([]uint64, nodes*words*setStride)
	for id := range rs {
		rs[id] = Router{
			ID:     topology.NodeID(id),
			In:     window(in, id, lanes),
			Out:    window(out, id, degree*v),
			RROut:  window(rr, id, degree),
			v:      v,
			depth:  bufDepth,
			buf:    window(buf, id, lanes*bufDepth),
			sets:   window(sets, id, words*setStride),
			decode: decode,
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
	r.ID = id
	return r
}

// InjectionPort returns the index of this router's injection input port.
func (r *Router) InjectionPort() int { return len(r.RROut) }

// LaneOf encodes (port, vc) as a lane id.
func (r *Router) LaneOf(port, vc int) Lane { return Lane(port*r.v + vc) }

// OutIndex is the index into Out of output VC (port, vc).
func (r *Router) OutIndex(port topology.Port, vc int) int { return int(port)*r.v + vc }

// LanePortVC decodes a lane id into its (port, vc) pair.
func (r *Router) LanePortVC(l Lane) (port, vc int) {
	d := r.decode[l]
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

// SwitchWord returns word i of the lanes the switch phase must look at:
// buffered and routed.
func (r *Router) SwitchWord(i int) uint64 {
	s := r.sets[i*setStride : i*setStride+setStride]
	return s[setActive] & s[setRouted]
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
// by In[l].
func (r *Router) SetRoute(l Lane) {
	w, bit := r.set(setRouted, l)
	*w |= bit
}

// ClearRoute drops lane l's route (the tail left, or the worm was purged).
func (r *Router) ClearRoute(l Lane) {
	w, bit := r.set(setRouted, l)
	*w &^= bit
}

// Blocked reports whether lane l is parked by Block.
func (r *Router) Blocked(l Lane) bool {
	w, bit := r.set(setBlocked, l)
	return *w&bit != 0
}

// Block parks lane l: its head found every candidate output VC busy, and
// asking again can only give a different answer after one of this router's
// output VCs is released (Release) or the fault set changes (Unblock).
func (r *Router) Block(l Lane) {
	w, bit := r.set(setBlocked, l)
	*w |= bit
}

// Unblock wakes every parked lane of the router.
func (r *Router) Unblock() {
	for i := setBlocked; i < len(r.sets); i += setStride {
		r.sets[i] = 0
	}
}

// Release frees output VC o (as indexed by OutIndex) and wakes the parked
// lanes: a head blocked on a full VC bank may now find a candidate.
func (r *Router) Release(o int) {
	r.Out[o].Busy = false
	r.Unblock()
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

// Len returns the number of flits buffered in lane l.
func (r *Router) Len(l Lane) int { return int(r.In[l].size) }

// Space returns the number of free slots in lane l.
func (r *Router) Space(l Lane) int { return r.depth - int(r.In[l].size) }

// Front returns the flit at the head of lane l without removing it; ok is
// false when the lane is empty.
func (r *Router) Front(l Lane) (message.Flit, bool) {
	q := &r.In[l]
	if q.size == 0 {
		return message.Flit{}, false
	}
	return r.buf[int(l)*r.depth+int(q.head)], true
}

// at returns the ring slot of lane l's i-th buffered flit.
func (r *Router) at(l Lane, i int) *message.Flit {
	i += int(r.In[l].head)
	if i >= r.depth {
		i -= r.depth
	}
	return &r.buf[int(l)*r.depth+i]
}

// PushLane appends a flit to lane l, updating the activity counter and the
// active set; it panics on overflow (credits must prevent it).
func (r *Router) PushLane(l Lane, f message.Flit) {
	q := &r.In[l]
	if int(q.size) == r.depth {
		panic("router: flit buffer overflow (credit accounting broken)")
	}
	*r.at(l, int(q.size)) = f
	q.size++
	r.Flits++
	w, bit := r.set(setActive, l)
	*w |= bit
}

// PopLane removes and returns the front flit of lane l, updating the
// activity counter and, when the lane drains, the active set; it panics
// when empty.
func (r *Router) PopLane(l Lane) message.Flit {
	q := &r.In[l]
	if q.size == 0 {
		panic("router: pop from empty flit buffer")
	}
	f := r.buf[int(l)*r.depth+int(q.head)]
	if q.head++; int(q.head) == r.depth {
		q.head = 0
	}
	q.size--
	r.Flits--
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
		fn(*r.at(l, i))
	}
}

// FilterLane removes every flit of lane l for which drop returns true,
// preserving FIFO order of the survivors, and returns the number removed.
// The fault-transition purge uses it to pull a dead worm's flits out of
// shared buffers without disturbing interleaved worms. A lane that lost
// flits may have a new front, so its blocked mark dies with the old one.
func (r *Router) FilterLane(l Lane, drop func(message.Flit) bool) int {
	q := &r.In[l]
	kept := 0
	for i := 0; i < int(q.size); i++ {
		if f := *r.at(l, i); !drop(f) {
			*r.at(l, kept) = f
			kept++
		}
	}
	removed := int(q.size) - kept
	if removed == 0 {
		return 0
	}
	q.size = uint16(kept)
	r.Flits -= removed
	w, bit := r.set(setBlocked, l)
	*w &^= bit
	if kept == 0 {
		w, bit = r.set(setActive, l)
		*w &^= bit
	}
	return removed
}
