package traffic

import (
	"container/heap"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/rng"
	"repro/internal/topology"
)

// Push implements heap.Interface; use heap.Push, never call directly.
func (h *arrivalHeap) Push(x any) { *h = append(*h, x.(arrival)) }

// Pop implements heap.Interface; use heap.Pop, never call directly.
func (h *arrivalHeap) Pop() any { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// Generator produces messages: each healthy node is an independent Poisson
// source of rate Lambda messages/cycle. Arrival times are pre-scheduled per
// node on an event heap, so per-cycle cost is proportional to the number of
// arrivals, not the number of nodes.
//
// It is the seed's pre-registry implementation, on container/heap itself.
// No product code builds one any more; it lives in this test file as the
// reference the registry's "poisson" source (NewPoisson, on the schedSource
// chassis with its hand-rolled heap) is held bit-identical to by
// TestPoissonMatchesReferenceGenerator.
type Generator struct {
	t       topology.Network
	lambda  float64
	msgLen  int
	mode    message.Mode
	pattern Pattern
	r       *rng.Stream
	heap    arrivalHeap
	nextID  uint64
	created uint64
}

// NewGenerator builds a generator. lambda is the per-node rate in
// messages/node/cycle; msgLen the fixed message length in flits; sources are
// the healthy nodes that generate traffic.
func NewGenerator(t topology.Network, sources []topology.NodeID, lambda float64, msgLen int, mode message.Mode, pattern Pattern, r *rng.Stream) *Generator {
	if lambda <= 0 {
		panic(fmt.Sprintf("traffic: lambda must be positive, got %g", lambda))
	}
	if msgLen < 1 {
		panic(fmt.Sprintf("traffic: message length must be >= 1, got %d", msgLen))
	}
	g := &Generator{t: t, lambda: lambda, msgLen: msgLen, mode: mode, pattern: pattern, r: r}
	mean := 1.0 / lambda
	for i, src := range sources {
		// First arrival at an exponential offset: stationary start.
		g.heap = append(g.heap, arrival{at: int64(r.Exp(mean)) + 1, node: int32(src), idx: int32(i)})
	}
	heap.Init(&g.heap)
	return g
}

// Poll returns the messages generated at cycle `now` (creation times <= now
// that have not been returned yet) and schedules each source's next arrival.
func (g *Generator) Poll(now int64) []*message.Message {
	var out []*message.Message
	mean := 1.0 / g.lambda
	for {
		top, ok := g.heap.Peek()
		if !ok || top.at > now {
			return out
		}
		heap.Pop(&g.heap)
		src := topology.NodeID(top.node)
		dst := g.pattern.Pick(src, g.r)
		m := message.New(g.nextID, src, dst, g.msgLen, g.t.N(), g.mode, now)
		g.nextID++
		g.created++
		out = append(out, m)
		gap := int64(g.r.Exp(mean))
		if gap < 1 {
			gap = 1
		}
		heap.Push(&g.heap, arrival{at: top.at + gap, node: top.node, idx: top.idx})
	}
}

// Name implements Source.
func (g *Generator) Name() string { return "poisson" }

// Created returns the total number of messages generated so far.
func (g *Generator) Created() uint64 { return g.created }

// TestPoissonMatchesReferenceGenerator is the workload layer's bit-identity
// proof: over the same rng stream the registry "poisson" source must emit
// the reference Generator's arrivals exactly — the whole message.Message
// (cycle, source, destination, length, id, header mode) — for 10^5
// messages, on a fault-free and on faulted node sets. Every golden trace in internal/network was recorded
// against the Generator and is now driven by the registry source, so this
// equality is what keeps those hashes meaningful.
func TestPoissonMatchesReferenceGenerator(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode message.Mode
		nf   int
	}{
		{"det-faultfree", message.Deterministic, 0},
		{"det-faults", message.Deterministic, 6},
		{"adaptive-faults", message.Adaptive, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tor := topology.New(8, 2)
			fs := fault.NewSet(tor)
			if tc.nf > 0 {
				var err error
				fs, err = fault.Random(tor, tc.nf, rng.New(41))
				if err != nil {
					t.Fatal(err)
				}
			}
			const lambda, msgLen = 0.02, 16
			ref := NewGenerator(tor, fs.HealthyNodes(), lambda, msgLen, tc.mode, NewUniform(fs), rng.New(123).Split(1))
			pattern, err := NewPattern("uniform", tor, fs)
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewSource("poisson", Env{
				T: tor, F: fs, Sources: fs.HealthyNodes(), Lambda: lambda,
				MsgLen: msgLen, Mode: tc.mode, Pattern: pattern, R: rng.New(123).Split(1),
			})
			if err != nil {
				t.Fatal(err)
			}
			arrivals := 0
			for now := int64(1); arrivals < 100_000; now++ {
				want, got := ref.Poll(now), src.Poll(now)
				if len(got) != len(want) {
					t.Fatalf("cycle %d: registry source emitted %d messages, reference %d", now, len(got), len(want))
				}
				for i, w := range want {
					g := got[i]
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("arrival %d differs:\nregistry:  %+v\nreference: %+v", arrivals+i, g, w)
					}
					if fs.NodeFaulty(g.Src) || fs.NodeFaulty(g.Dst) {
						t.Fatalf("arrival %d touches a faulty node: %+v", arrivals+i, g)
					}
				}
				arrivals += len(want)
			}
		})
	}
}
