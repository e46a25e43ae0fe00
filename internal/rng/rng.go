// Package rng provides small, fast, deterministic pseudo-random number
// generators with splittable streams.
//
// Interconnect simulations must be exactly reproducible: a (seed, config)
// pair must always produce the same run, and independent subsystems (traffic
// generation per node, virtual-channel selection, fault placement) must draw
// from independent streams so that changing how often one subsystem samples
// does not perturb the others. math/rand's global state gives neither
// property conveniently, so this package implements SplitMix64 (for seeding /
// splitting) feeding xoshiro256**, the same construction used by Go's
// runtime-seeded generators, entirely in ordinary code with no global state.
package rng

import "math/bits"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used to expand one 64-bit seed into the four words of xoshiro state
// and to derive child stream seeds.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a deterministic xoshiro256** generator. The zero value is not
// valid; construct streams with New or Split.
type Stream struct {
	s [4]uint64
}

// New returns a Stream seeded from the given 64-bit seed. Any seed value,
// including zero, yields a well-mixed state.
func New(seed uint64) *Stream {
	var st Stream
	sm := seed
	for i := range st.s {
		st.s[i] = splitMix64(&sm)
	}
	return &st
}

// Split derives an independent child stream. The child is a pure function of
// the parent's current state and the label, so two Splits with different
// labels from the same state never collide, and splitting does not disturb
// the parent's own sequence beyond a single state advance.
func (r *Stream) Split(label uint64) *Stream {
	st := r.SplitValue(label)
	return &st
}

// SplitValue is Split returning the child by value, so a caller deriving
// many streams can keep them in one slice instead of one object each.
func (r *Stream) SplitValue(label uint64) Stream {
	return *New(r.Uint64() ^ bits.RotateLeft64(label, 32) ^ 0xa0761d6478bd642f)
}

// Uint64 returns the next 64 bits from the stream.
func (r *Stream) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and division-free
	// on the fast path.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		threshold := (-un) % un
		for lo < threshold {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean.
// It is the inter-arrival sampler for Poisson processes: arrivals with
// Exp(1/λ) gaps form a Poisson process of rate λ.
func (r *Stream) Exp(mean float64) float64 {
	// Inverse-CDF; guard against Float64 returning exactly 0.
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * ln(u)
}

// ln is a thin wrapper kept separate so the Exp hot path stays inlinable.
func ln(x float64) float64 { return mathLog(x) }

// Bool returns a uniform random boolean.
func (r *Stream) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a uniform random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Pareto returns a Pareto-distributed value with the given shape alpha and
// scale (minimum) xm, via the inverse CDF xm·U^(-1/alpha). Heavy-tailed
// on/off traffic sources draw their phase durations from it; shapes in
// (1, 2] have a finite mean but infinite variance, the regime that
// produces burstiness across every time scale.
func (r *Stream) Pareto(alpha, xm float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm * mathPow(u, -1/alpha)
}
