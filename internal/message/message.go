// Package message defines the unit of communication in the simulator: fixed
// length wormhole messages, their flits, and the routing header that the
// Software-Based messaging layer rewrites when a message is absorbed at an
// intermediate node.
//
// Per the paper's assumptions (§5.1): message length is fixed (M flits), a
// message is generated at a node by a Poisson process, and when a message
// encounters a faulty component it is removed from the network, its header
// modified in software, and the message re-injected with priority at the
// absorbing node.
//
// Messages live in a Pool (see pool.go): an index-addressed arena keyed by
// compact Ref handles, so the engine's hot path carries 8-byte flits instead
// of pointers and delivered messages are recycled instead of collected. The
// per-dimension header state is held in fixed-size arrays (MaxDims), so
// constructing a message allocates nothing beyond the Message itself — and
// with the arena, not even that.
package message

import (
	"fmt"

	"repro/internal/topology"
)

// MaxDims is the largest network dimensionality a message header can carry.
// The per-dimension rerouting state (DirOverride/Reversed/Crossed) is stored
// in fixed-size arrays of this length so message construction performs no
// per-dimension allocations; 16 dimensions covers a 65536-node hypercube.
const MaxDims = 16

// Mode selects the base routing discipline of a message, mirroring the
// paper's routing_type variable.
type Mode uint8

const (
	// Deterministic routes dimension-order (e-cube) paths.
	Deterministic Mode = iota
	// Adaptive routes Duato-protocol fully adaptive paths until the first
	// fault is encountered, then falls back to Deterministic permanently
	// ("From this point, faulted messages are always routed using
	// detRouting2D").
	Adaptive
)

func (m Mode) String() string {
	if m == Deterministic {
		return "deterministic"
	}
	return "adaptive"
}

// tailBit marks the tail flit in Flit's packed seq word, so IsTail needs no
// pool lookup.
const tailBit = 1 << 15

// MaxLen is the longest worm a Flit can number: seq shares its uint16 with
// the tail flag, so flit 1<<15 of a longer worm would read as a second head.
// Every path a length enters by (Config.MsgLen, workload records) checks it.
const MaxLen = 1<<15 - 1

// Flit is one flow-control digit of a message: an 8-byte value carrying the
// owning message's pool Ref and the flit's sequence number (tail flag packed
// into the top bit). Flits exist only inside router buffers; Seq runs
// 0 (head) .. Len-1 (tail). Single-flit messages have a flit that is
// simultaneously head and tail. Because a Flit holds no pointer, buffered
// flits are invisible to the garbage collector.
type Flit struct {
	ref Ref
	seq uint16
}

// MakeFlit materialises flit seq of a worm of msgLen flits registered under
// ref.
func MakeFlit(ref Ref, seq, msgLen int) Flit {
	s := uint16(seq)
	if seq == msgLen-1 {
		s |= tailBit
	}
	return Flit{ref: ref, seq: s}
}

// PackedFlit rebuilds the flit whose Ref and Packed word are given: a
// router that stores the two apart puts a flit back together with it.
func PackedFlit(ref Ref, packed uint16) Flit { return Flit{ref: ref, seq: packed} }

// Ref returns the pool handle of the owning message.
func (f Flit) Ref() Ref { return f.ref }

// Packed returns the flit's sequence word: Seq, the tail flag on top.
func (f Flit) Packed() uint16 { return f.seq }

// Seq returns the flit's position in the worm (0 = head).
func (f Flit) Seq() int { return int(f.seq &^ tailBit) }

// IsHead reports whether this is the header flit.
func (f Flit) IsHead() bool { return f.seq&^tailBit == 0 }

// IsTail reports whether this is the last flit of the worm.
func (f Flit) IsTail() bool { return f.seq&tailBit != 0 }

// Header is the software-rewritable routing state carried by the head flit.
// Fields other than Dst are manipulated exclusively by the Software-Based
// messaging layer (internal/routing) when the message is absorbed. The
// per-dimension tables are fixed-size arrays (dimensions >= the network's N
// are simply unused) so a header never allocates.
type Header struct {
	// Dst is the final destination.
	Dst topology.NodeID
	// Via is a stack of intermediate destinations (last element on top).
	// The message routes to the top of the stack first; reaching it pops.
	// The backing store is retained across pool recycles, so a steady-state
	// workload stops allocating once the worst-case chain depth is reached.
	Via []topology.NodeID
	// Mode is the current routing discipline.
	Mode Mode
	// Faulted marks a message that has been absorbed at least once; such
	// messages route deterministically forever after.
	Faulted bool
	// DirOverride forces a (possibly non-minimal) ring direction per
	// dimension; 0 means route minimally. Set by rerouting table T1
	// (reverse on first fault in a dimension).
	DirOverride [MaxDims]topology.Dir
	// Reversed records dimensions in which T1 has already been applied, so
	// a second fault in the same dimension escalates to the orthogonal
	// detour (table T2).
	Reversed [MaxDims]bool
	// Crossed records, per dimension, whether the worm has crossed the
	// ring's wraparound edge since (re-)injection; it selects the dateline
	// virtual-channel class. Reset on re-injection (a re-injected message
	// is a fresh worm).
	Crossed [MaxDims]bool
	// Detoured marks headers that have been given their load-balancing
	// intermediate destination (set once by two-phase algorithms such as
	// valiant); it survives via pops and re-injection so the detour is
	// never re-installed.
	Detoured bool
}

// StopReason records why a worm is being ejected at its current node; it is
// transient engine state, set when the routing decision is taken and
// consumed when the tail flit reaches the local PE or messaging layer.
type StopReason uint8

const (
	// StopNone: not ejecting.
	StopNone StopReason = iota
	// StopDeliver: final destination reached.
	StopDeliver
	// StopVia: intermediate destination reached; pop and re-inject.
	StopVia
	// StopFault: outgoing channel leads to a fault; replan and re-inject.
	StopFault
	// StopDrop: the planner found no route (disconnecting fault pattern);
	// discard on ejection.
	StopDrop
)

// Message is a fixed-length wormhole message plus bookkeeping for the
// statistics the paper reports (latency from generation to last-flit
// ejection; absorption counts for Fig. 7).
type Message struct {
	ID  uint64
	Src topology.NodeID
	Len int // flits
	Header

	// CreatedAt is the cycle the message was generated at the source PE
	// (latency is measured from here, source queueing included).
	CreatedAt int64
	// Absorptions counts how many times the message was removed from the
	// network due to faults; each absorption also increments the network
	// wide "messages queued" counter of Fig. 7.
	Absorptions int
	// DeliveredAt is the cycle the tail flit reached the destination PE;
	// -1 while in flight.
	DeliveredAt int64

	// refp1 is the message's Pool handle plus one; 0 means the message is
	// not registered in a pool. The +1 shift keeps the zero Message safely
	// unregistered. (Declared before the byte-wide tail fields so the
	// trailing scalars pack into one word: 152 -> 144 bytes per arena
	// slot.)
	refp1 int32
	// Pending is the engine's transient ejection reason for the worm.
	Pending StopReason
	// owned marks messages whose storage belongs to a Pool's arena and is
	// recycled on Free; adopted foreign messages stay false and are simply
	// unregistered.
	owned bool
}

// New constructs a heap-allocated message of length flits from src to dst in
// the given mode for an n-dimensional network. Engine-driven runs allocate
// through a Pool instead (see Pool.New / NewIn); this constructor remains
// for tests, analysis tools and callers that hand messages to
// Network.Enqueue, which registers them in the engine's pool via Adopt.
func New(id uint64, src, dst topology.NodeID, length, n int, mode Mode, createdAt int64) *Message {
	if length < 1 {
		panic(fmt.Sprintf("message: length must be >= 1, got %d", length))
	}
	if n > MaxDims {
		panic(fmt.Sprintf("message: %d dimensions exceed MaxDims=%d", n, MaxDims))
	}
	return &Message{
		ID:  id,
		Src: src,
		Len: length,
		Header: Header{
			Dst:  dst,
			Mode: mode,
		},
		CreatedAt:   createdAt,
		DeliveredAt: -1,
	}
}

// Ref returns the message's pool handle; ok is false when the message is
// not registered in a Pool.
func (m *Message) Ref() (Ref, bool) {
	if m.refp1 == 0 {
		return NilRef, false
	}
	return Ref(m.refp1 - 1), true
}

// Target returns the node the message is currently routing towards: the top
// intermediate destination if any, else the final destination.
func (m *Message) Target() topology.NodeID {
	if n := len(m.Via); n > 0 {
		return m.Via[n-1]
	}
	return m.Dst
}

// PushVia adds an intermediate destination on top of the stack.
func (m *Message) PushVia(v topology.NodeID) { m.Via = append(m.Via, v) }

// PopViasAt pops every via entry equal to node (the message may have been
// handed a chain whose corner it reached).
func (m *Message) PopViasAt(node topology.NodeID) {
	for len(m.Via) > 0 && m.Via[len(m.Via)-1] == node {
		m.Via = m.Via[:len(m.Via)-1]
	}
}

// ResetForReinjection prepares the header for re-injection after absorption:
// the worm re-enters the network fresh, so dateline-crossing state clears.
// Direction overrides and reversal history persist — they are the rerouting
// decision.
func (m *Message) ResetForReinjection() {
	m.Crossed = [MaxDims]bool{}
}

// ResetForRequeue rewinds the header to its as-generated state for a full
// restart from the source, used when a dynamic fault transition purges the
// worm from the network. Unlike ResetForReinjection, every piece of
// accumulated rerouting state clears — the fault pattern that produced it
// no longer exists — and the base routing mode is restored. Statistics
// fields (ID, CreatedAt, Absorptions) persist: the retry is the same
// message, and its latency is measured from original generation.
func (m *Message) ResetForRequeue(mode Mode) {
	m.Via = m.Via[:0]
	m.Mode = mode
	m.Faulted = false
	m.DirOverride = [MaxDims]topology.Dir{}
	m.Reversed = [MaxDims]bool{}
	m.Crossed = [MaxDims]bool{}
	m.Detoured = false
	m.Pending = StopNone
}

// Flit materialises flit seq of the worm. The message must be registered in
// a Pool (flits carry the pool Ref, not a pointer).
func (m *Message) Flit(seq int) Flit {
	if seq < 0 || seq >= m.Len {
		panic(fmt.Sprintf("message: flit seq %d out of range [0,%d)", seq, m.Len))
	}
	if m.refp1 == 0 {
		panic("message: Flit on a message not registered in a Pool")
	}
	return MakeFlit(Ref(m.refp1-1), seq, m.Len)
}

func (m *Message) String() string {
	return fmt.Sprintf("msg#%d %d->%d len=%d mode=%v via=%v", m.ID, m.Src, m.Dst, m.Len, m.Mode, m.Via)
}
