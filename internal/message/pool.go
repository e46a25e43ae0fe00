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

// chunkSize is the arena growth quantum: Messages are allocated in chunks
// of this many so pool growth is O(live worms / chunkSize) allocations over
// a run, and recycled messages stay cache-adjacent.
const chunkSize = 256

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
	chunk := make([]Message, chunkSize)
	p.chunks++
	for i := chunkSize - 1; i > 0; i-- {
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
