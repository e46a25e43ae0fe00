package message

import (
	"fmt"

	"repro/internal/topology"
)

// Ref is a compact pool handle addressing one live Message. The engine's
// hot paths (flit buffers, software queues, injection streams) carry Refs
// instead of pointers, so the flit-level state the garbage collector has to
// scan is empty and delivered messages recycle instead of being collected.
type Ref int32

// NilRef is the invalid handle.
const NilRef Ref = -1

// The arena grows by chunks of Messages, so pool growth is a handful of
// allocations over a run and recycled messages stay cache-adjacent. The
// first chunk holds firstChunk messages and each of the next doublings
// twice as many as the one before (16, 32, 64, 128, then 256 for good): a
// point that never has more than a few dozen worms alive allocates a few
// KiB, not 256 messages' worth.
const (
	firstChunk = 16
	doublings  = 4
)

// Pool is an index-addressed message arena with a free-list. One Pool
// serves one engine run: the traffic source allocates from it (Pool.New),
// the engine threads Refs end-to-end, and delivery/drop returns the slot —
// and, for arena-owned messages, the storage — for reuse.
//
// Recycling preserves determinism by construction: slot assignment is a
// LIFO over the free-list, every allocation and free happens at a fixed
// point of the simulation's sequential event order, and no engine decision
// ever reads a Ref's numeric value.
type Pool struct {
	// slots maps Ref -> live message; freed slots hold nil until reused.
	slots []*Message
	// links[ref] threads slot ref through the Queue holding it.
	links []link
	// freeSlots is the LIFO free-list of slot indices.
	freeSlots []Ref
	// freeMsgs holds recycled arena-owned Message storage.
	freeMsgs []*Message
	live     int
	chunks   int
}

// NewPool builds a pool for messages of an n-dimensional network. noArena
// selected the retired heap path and must be false; the parameter remains
// only because the frozen bench/ module passes it (bench/engine.go:165,
// bench/kernels.go:75,214,248) and goes with the bench/ unfreeze.
func NewPool(n int, noArena bool) *Pool {
	if n < 1 || n > MaxDims {
		panic(fmt.Sprintf("message: pool dimensionality %d outside [1,%d]", n, MaxDims))
	}
	if noArena {
		panic("message: the heap path (noArena) is retired; pass false")
	}
	return &Pool{}
}

// Live returns the number of registered (allocated or adopted, not yet
// freed) messages.
func (p *Pool) Live() int { return p.live }

// Chunks returns how many arena chunks have been allocated — growth
// observability for tests and profiling.
func (p *Pool) Chunks() int { return p.chunks }

// Cap returns the slot-table size: the high-water mark of simultaneously
// live messages.
func (p *Pool) Cap() int { return len(p.slots) }

// New allocates and initialises a message of length flits from src to dst,
// registered in the pool. The storage comes from the free-list (growing the
// arena by a chunk when exhausted) and the Via backing store is retained
// from the slot's previous occupant.
func (p *Pool) New(id uint64, src, dst topology.NodeID, length int, mode Mode, createdAt int64) *Message {
	if length < 1 {
		panic(fmt.Sprintf("message: length must be >= 1, got %d", length))
	}
	m := p.take()
	via := m.Via[:0]
	*m = Message{
		ID:  id,
		Src: src,
		Len: length,
		Header: Header{
			Dst:  dst,
			Mode: mode,
			Via:  via,
		},
		CreatedAt:   createdAt,
		DeliveredAt: -1,
		owned:       true,
	}
	p.bind(m)
	return m
}

// take produces uninitialised message storage, recycled or freshly grown.
func (p *Pool) take() *Message {
	if n := len(p.freeMsgs); n > 0 {
		m := p.freeMsgs[n-1]
		p.freeMsgs[n-1] = nil
		p.freeMsgs = p.freeMsgs[:n-1]
		return m
	}
	chunk := make([]Message, firstChunk<<min(p.chunks, doublings))
	p.chunks++
	for i := len(chunk) - 1; i > 0; i-- {
		p.freeMsgs = append(p.freeMsgs, &chunk[i])
	}
	return &chunk[0]
}

// bind registers m under a slot, reusing the most recently freed one.
func (p *Pool) bind(m *Message) Ref {
	var ref Ref
	if n := len(p.freeSlots); n > 0 {
		ref = p.freeSlots[n-1]
		p.freeSlots = p.freeSlots[:n-1]
		p.slots[ref] = m
	} else {
		ref = Ref(len(p.slots))
		p.slots = append(p.slots, m)
		p.links = append(p.links, link{})
	}
	m.refp1 = int32(ref) + 1
	p.live++
	return ref
}

// Adopt registers a caller-constructed message (message.New, replayed or
// test-built) and returns its Ref; a message already registered returns its
// existing Ref. Adopted storage is foreign: Free unregisters it without
// recycling, so the caller's pointer stays valid (and inspectable)
// afterwards.
func (p *Pool) Adopt(m *Message) Ref {
	if m.refp1 != 0 {
		return Ref(m.refp1 - 1)
	}
	return p.bind(m)
}

// At resolves a Ref to its live message. Resolving a freed Ref returns nil
// (and any dereference panics) — holding a Ref across Free is a bug.
func (p *Pool) At(ref Ref) *Message { return p.slots[ref] }

// Free returns a message's slot — and, for arena-owned storage, the
// Message itself — to the free-lists. The caller must hold no flits or
// Refs for it afterwards.
func (p *Pool) Free(ref Ref) {
	m := p.slots[ref]
	if m == nil {
		panic(fmt.Sprintf("message: Free of dead ref %d", ref))
	}
	p.slots[ref] = nil
	p.freeSlots = append(p.freeSlots, ref)
	m.refp1 = 0
	p.live--
	if m.owned {
		m.owned = false
		p.freeMsgs = append(p.freeMsgs, m)
	}
}

// NewIn allocates from pool when non-nil, else from the heap via New —
// the bridge for traffic sources that run with or without an engine pool.
func NewIn(pool *Pool, id uint64, src, dst topology.NodeID, length, n int, mode Mode, createdAt int64) *Message {
	if pool == nil {
		return New(id, src, dst, length, n, mode, createdAt)
	}
	return pool.New(id, src, dst, length, mode, createdAt)
}

// link is a slot's place in a Queue: the Ref queued after it (plus one, 0
// ending the queue) and the cycle its message becomes eligible.
type link struct {
	next       Ref
	eligibleAt int64
}

// Queue is a FIFO of messages threaded through their pool slots (see
// link), so a queue is two Refs and queueing allocates nothing once the
// slot table has grown. A message sits in at most one queue at a time, and
// must leave it before Free. The zero Queue is empty.
type Queue struct {
	// first and last are Refs plus one; 0 means the queue is empty.
	first, last Ref
}

// Empty reports whether the queue holds no message.
func (q Queue) Empty() bool { return q.first == 0 }

// Enqueue appends message ref to q, eligible from cycle eligibleAt on.
func (p *Pool) Enqueue(q *Queue, ref Ref, eligibleAt int64) {
	p.links[ref] = link{eligibleAt: eligibleAt}
	if q.last == 0 {
		q.first = ref + 1
	} else {
		p.links[q.last-1].next = ref + 1
	}
	q.last = ref + 1
}

// Head returns the front message of a non-empty queue and the cycle it
// becomes eligible.
func (p *Pool) Head(q Queue) (Ref, int64) { return q.first - 1, p.links[q.first-1].eligibleAt }

// Dequeue removes the front message of a non-empty queue.
func (p *Pool) Dequeue(q *Queue) {
	if q.first = p.links[q.first-1].next; q.first == 0 {
		q.last = 0
	}
}

// QueueLen returns the number of messages in q.
func (p *Pool) QueueLen(q Queue) int {
	n := 0
	for r := q.first; r != 0; r = p.links[r-1].next {
		n++
	}
	return n
}

// FilterQueue removes every message drop reports true for, preserving the
// order of the survivors, and returns the removed ones in queue order.
func (p *Pool) FilterQueue(q *Queue, drop func(Ref) bool) (removed []Ref) {
	var kept Queue
	for !q.Empty() {
		ref, at := p.Head(*q)
		p.Dequeue(q)
		if drop(ref) {
			removed = append(removed, ref)
		} else {
			p.Enqueue(&kept, ref, at)
		}
	}
	*q = kept
	return removed
}
