// Package traffic generates the simulator's workloads. A workload is the
// product of two pluggable, string-keyed pieces mirroring the routing
// registry:
//
//   - a Pattern — the spatial destination distribution (uniform, transpose,
//     hotspot, bit-reversal, per-node weighted map), and
//   - a Source — the temporal arrival process (poisson, deterministic
//     interval, MMPP on/off bursty, per-node heterogeneous rates, and
//     trace replay of captured (cycle,src,dst,len) records).
//
// Both sides parse from specs like "hotspot:frac=0.1,node=12" and
// "burst:on=50,off=200,rate=0.02" (see registry.Parse) and are built through
// NewPattern/NewSource; new patterns and sources plug in with a
// RegisterPattern/RegisterSource call.
//
// The paper's evaluation workload (§5.1) is the default pairing: every
// healthy node generates messages independently following a Poisson process
// with mean rate λ messages/node/cycle, fixed message length, uniformly
// random destinations.
package traffic

import (
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/topology"
)

// Pattern selects a destination for a message generated at src. Pick must
// return a healthy node different from src; patterns are constructed with
// the fault configuration so they can honour that contract.
type Pattern interface {
	Name() string
	Pick(src topology.NodeID, r *rng.Stream) topology.NodeID
}

// Uniform picks destinations uniformly at random among healthy nodes other
// than the source — the paper's workload.
type Uniform struct {
	healthy []topology.NodeID
	// index[id] is node id's position in healthy, -1 for a faulty node.
	index []int32
}

// NewUniform builds the uniform pattern over the healthy nodes of f.
func NewUniform(f *fault.Set) *Uniform {
	h := f.HealthyNodes()
	idx := slices.Repeat([]int32{-1}, f.Net().Nodes())
	for i, id := range h {
		idx[id] = int32(i)
	}
	return &Uniform{healthy: h, index: idx}
}

// Name implements Pattern.
func (u *Uniform) Name() string { return "uniform" }

// Pick implements Pattern. It draws from healthy nodes excluding src by
// remapping the last element onto src's slot, keeping the draw single-shot
// and uniform.
func (u *Uniform) Pick(src topology.NodeID, r *rng.Stream) topology.NodeID {
	n := len(u.healthy)
	si := int(u.index[src])
	if si < 0 {
		return u.healthy[r.Intn(n)]
	}
	j := r.Intn(n - 1)
	if j == si {
		j = n - 1
	}
	return u.healthy[j]
}

// Transpose sends (a0, a1, ..., a(n-1)) to (a1, ..., a(n-1), a0): the
// classic adversarial permutation generalised to n dimensions. Faulty or
// self destinations fall back to uniform.
type Transpose struct {
	t        topology.Network
	f        *fault.Set
	fallback *Uniform
	k        int // radix
	top      int // k^(n-1), the place value of the last address digit
}

// NewTranspose builds the transpose pattern.
func NewTranspose(t topology.Network, f *fault.Set) *Transpose {
	top := 1
	for i := 1; i < t.N(); i++ {
		top *= t.K()
	}
	return &Transpose{t: t, f: f, fallback: NewUniform(f), k: t.K(), top: top}
}

// Name implements Pattern.
func (p *Transpose) Name() string { return "transpose" }

// Pick implements Pattern. An address is the radix-k number a0 + k·a1 +
// … + k^(n-1)·a(n-1), so the rotation drops a0 off the bottom and puts it
// on top — arithmetic instead of the Coords/FromCoords slices, which would
// allocate on every generated message.
func (p *Transpose) Pick(src topology.NodeID, r *rng.Stream) topology.NodeID {
	a0 := p.t.Coord(src, 0)
	dst := topology.NodeID((int(src)-a0)/p.k + a0*p.top)
	if dst == src || p.f.NodeFaulty(dst) {
		return p.fallback.Pick(src, r)
	}
	return dst
}

// Hotspot mixes a base pattern with a fixed hot node: with probability Frac
// the destination is the hotspot (unless it equals src or is faulty).
type Hotspot struct {
	Base Pattern
	Spot topology.NodeID
	Frac float64
	f    *fault.Set
}

// NewHotspot builds a hotspot pattern over base.
func NewHotspot(base Pattern, spot topology.NodeID, frac float64, f *fault.Set) *Hotspot {
	return &Hotspot{Base: base, Spot: spot, Frac: frac, f: f}
}

// Name implements Pattern.
func (p *Hotspot) Name() string { return fmt.Sprintf("hotspot(%d,%.2f)", p.Spot, p.Frac) }

// Pick implements Pattern.
func (p *Hotspot) Pick(src topology.NodeID, r *rng.Stream) topology.NodeID {
	if r.Float64() < p.Frac && p.Spot != src && !p.f.NodeFaulty(p.Spot) {
		return p.Spot
	}
	return p.Base.Pick(src, r)
}

// arrival is a scheduled message generation event at a node. idx is the
// node's position in the source's generating-node slice (used by sources
// with per-node state; the Poisson generator ignores it). Both fit 32 bits
// (the engine refuses networks of 2³¹ nodes or more). 16 bytes.
type arrival struct {
	at   int64
	node int32
	idx  int32
}

// arrivalHeap is a min-heap of scheduled arrivals ordered by cycle. Len,
// Less and Swap are three fifths of container/heap.Interface; the other
// two live in generator_test.go, where the reference Generator drives this
// type through container/heap itself.
type arrivalHeap []arrival

// Len is the number of scheduled arrivals.
func (h arrivalHeap) Len() int { return len(h) }

// Less orders earlier arrivals first.
func (h arrivalHeap) Less(i, j int) bool { return h[i].at < h[j].at }

// Swap exchanges two heap slots.
func (h arrivalHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Peek returns the earliest scheduled arrival without removing it.
func (h arrivalHeap) Peek() (arrival, bool) {
	if len(h) == 0 {
		return arrival{}, false
	}
	return h[0], true
}

// The push/pop/init operations below are container/heap's algorithms
// restated directly over the slice, because heap.Push/heap.Pop box every
// arrival through an interface value — one allocation per scheduled event,
// which is exactly the hot path the zero-allocation Step contract forbids.
// They reproduce container/heap's sift order operation for operation;
// TestPoissonMatchesReferenceGenerator holds them equal to the real thing.

// push inserts an arrival, mirroring heap.Push.
func (h *arrivalHeap) push(a arrival) {
	*h = append(*h, a)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest arrival, mirroring heap.Pop.
func (h *arrivalHeap) pop() arrival {
	old := *h
	n := len(old) - 1
	old.Swap(0, n)
	old[:n].down(0)
	a := old[n]
	*h = old[:n]
	return a
}

// init establishes the heap invariant, mirroring heap.Init.
func (h arrivalHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h arrivalHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		j = i
	}
}

func (h arrivalHeap) down(i int) {
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.Less(j2, j1) {
			j = j2
		}
		if !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		i = j
	}
}
