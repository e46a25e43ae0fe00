package metrics

import (
	"math"
	"sort"
)

// The small statistical toolkit the collectors are built on: numerically
// stable streaming moments (Welford), normal-approximation confidence
// intervals, and exact quantiles over retained samples.

// Welford accumulates count, mean and variance in one pass using Welford's
// online algorithm, which stays numerically stable for the long latency
// streams a saturated network produces. The zero value is ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 || x > w.max {
		w.max = x
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Max returns the largest observation (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// CI95 returns the half-width of the 95% confidence interval for the mean
// under the normal approximation (z = 1.96).
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return 1.96 * w.Std() / math.Sqrt(float64(w.n))
}

// Sample retains observations for exact quantile queries. For the
// simulator's scale (<= a few hundred thousand samples per point) exact
// retention is cheaper than sketching and exactly reproducible.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank
// interpolation; 0 when empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[len(s.xs)-1]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}
