package traffic

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/fault"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/topology"
)

// BitReversal sends node i to the node whose index is i's bit string
// reversed — the classic FFT-communication permutation, adversarial for
// dimension-order routing. It requires a power-of-two node count; faulty
// or self destinations fall back to uniform.
type BitReversal struct {
	f        *fault.Set
	fallback *Uniform
	bits     int
}

// NewBitReversal builds the bit-reversal pattern.
func NewBitReversal(t topology.Network, f *fault.Set) (*BitReversal, error) {
	n := t.Nodes()
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("traffic: bitrev needs a power-of-two node count, got %d", n)
	}
	return &BitReversal{f: f, fallback: NewUniform(f), bits: bits.TrailingZeros(uint(n))}, nil
}

// Name implements Pattern.
func (p *BitReversal) Name() string { return "bitrev" }

// Pick implements Pattern.
func (p *BitReversal) Pick(src topology.NodeID, r *rng.Stream) topology.NodeID {
	dst := topology.NodeID(bits.Reverse64(uint64(src)) >> (64 - p.bits))
	if dst == src || p.f.NodeFaulty(dst) {
		return p.fallback.Pick(src, r)
	}
	return dst
}

// Weighted draws destinations from an explicit per-node weight map — the
// fully general spatial distribution (skewed servers, multi-hotspot,
// rack-local mixes). Unlisted nodes receive the rest weight. Draws landing
// on the source are redrawn; a source holding all the weight falls back to
// uniform.
type Weighted struct {
	f        *fault.Set
	nodes    []topology.NodeID // healthy nodes with weight > 0, ascending
	cum      []float64         // cumulative weights over nodes
	weight   map[topology.NodeID]float64
	total    float64
	fallback *Uniform
}

// NewWeighted builds the weighted pattern. weights maps node id -> weight
// (>= 0); rest is the weight of unlisted healthy nodes.
func NewWeighted(t topology.Network, f *fault.Set, weights map[int]float64, rest float64) (*Weighted, error) {
	if rest < 0 {
		return nil, fmt.Errorf("traffic: weights rest must be >= 0, got %g", rest)
	}
	total := t.Nodes()
	ids := make([]int, 0, len(weights))
	for id := range weights {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if id < 0 || id >= total {
			return nil, fmt.Errorf("traffic: weights node %d out of range [0,%d)", id, total)
		}
		if weights[id] < 0 {
			return nil, fmt.Errorf("traffic: weights node %d: weight must be >= 0, got %g", id, weights[id])
		}
		if weights[id] > 0 && f.NodeFaulty(topology.NodeID(id)) {
			return nil, fmt.Errorf("traffic: weights node %d is faulty", id)
		}
	}
	w := &Weighted{f: f, weight: map[topology.NodeID]float64{}, fallback: NewUniform(f)}
	for _, id := range f.HealthyNodes() {
		wt := rest
		if v, ok := weights[int(id)]; ok {
			wt = v
		}
		if wt > 0 {
			w.nodes = append(w.nodes, id)
			w.total += wt
			w.cum = append(w.cum, w.total)
			w.weight[id] = wt
		}
	}
	if len(w.nodes) == 0 {
		return nil, fmt.Errorf("traffic: weights leave no healthy node with positive weight")
	}
	return w, nil
}

// Name implements Pattern.
func (w *Weighted) Name() string { return "weights" }

// Pick implements Pattern.
func (w *Weighted) Pick(src topology.NodeID, r *rng.Stream) topology.NodeID {
	if w.total-w.weight[src] <= 0 {
		// src holds all the weight; no legal weighted draw exists.
		return w.fallback.Pick(src, r)
	}
	for tries := 0; tries < 64; tries++ {
		x := r.Float64() * w.total
		i := sort.SearchFloat64s(w.cum, x)
		if i >= len(w.nodes) {
			i = len(w.nodes) - 1
		}
		if dst := w.nodes[i]; dst != src {
			return dst
		}
	}
	return w.fallback.Pick(src, r)
}

// --- registry wiring ---

// noParams is the factory of a parameterless pattern: it rejects every
// parameter and hands back build.
func noParams(build PatternBuilder) PatternFactory {
	return func(spec registry.Spec) (PatternBuilder, error) {
		return build, patterns.Args(spec).Finish()
	}
}

func init() {
	RegisterPattern(Info{
		Name:        "uniform",
		Usage:       "uniform",
		Description: "uniformly random healthy destination != source (the paper's workload)",
	}, noParams(func(t topology.Network, f *fault.Set) (Pattern, error) {
		return NewUniform(f), nil
	}))

	RegisterPattern(Info{
		Name:        "transpose",
		Usage:       "transpose",
		Description: "coordinate rotation (a0,...,an-1) -> (a1,...,a0); adversarial for e-cube",
	}, noParams(func(t topology.Network, f *fault.Set) (Pattern, error) {
		return NewTranspose(t, f), nil
	}))

	RegisterPattern(Info{
		Name:        "hotspot",
		Usage:       "hotspot[:frac=<(0,1]>,node=<id>]",
		Description: "uniform mixed with a fixed hot node (default: middle healthy node, frac 0.1)",
		NodeIDKeys:  []string{"node"},
	}, func(spec registry.Spec) (PatternBuilder, error) {
		a := patterns.Args(spec)
		frac := a.Fraction("frac", 0.1)
		node := a.Int("node", -1) // -1: default (middle healthy node)
		if _, ok := spec.Get("node"); ok && node < 0 {
			a.Failf("node must be >= 0, got %d", node)
		}
		return func(t topology.Network, f *fault.Set) (Pattern, error) {
			healthy := f.HealthyNodes()
			if len(healthy) == 0 {
				return nil, fmt.Errorf("traffic: hotspot needs at least one healthy node")
			}
			spot := healthy[len(healthy)/2]
			if node >= 0 {
				if node >= t.Nodes() {
					return nil, fmt.Errorf("traffic: hotspot node %d out of range [0,%d)", node, t.Nodes())
				}
				spot = topology.NodeID(node)
				if f.NodeFaulty(spot) {
					return nil, fmt.Errorf("traffic: hotspot node %d is faulty", node)
				}
			}
			return NewHotspot(NewUniform(f), spot, frac, f), nil
		}, a.Finish()
	})

	RegisterPattern(Info{
		Name:        "bitrev",
		Usage:       "bitrev",
		Description: "bit-reversal permutation (needs a power-of-two node count)",
		Aliases:     []string{"bit-reversal"},
	}, noParams(func(t topology.Network, f *fault.Set) (Pattern, error) {
		return NewBitReversal(t, f)
	}))

	RegisterPattern(Info{
		Name:        "weights",
		Usage:       "weights:<node>=<weight>,...[,rest=<weight>]",
		Description: "per-node weighted destination map; rest weights the unlisted nodes",
		Aliases:     []string{"weighted"},
	}, func(spec registry.Spec) (PatternBuilder, error) {
		a := patterns.Args(spec)
		weights, rest := a.NodeFloats(), a.Float("rest", 0)
		if rest < 0 {
			a.Failf("rest must be >= 0, got %g", rest)
		}
		if len(weights) == 0 && rest == 0 {
			a.Failf("weights needs at least one <node>=<weight> entry or rest=<weight>")
		}
		return func(t topology.Network, f *fault.Set) (Pattern, error) {
			return NewWeighted(t, f, weights, rest)
		}, a.Finish()
	})
}
