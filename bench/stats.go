package main

import (
	"math"
	"math/bits"
	"slices"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// fastest returns the smallest value of xs, 0 for an empty slice.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is what the PR driver computes spreads with. Fewer than two values
// have no spread: both quartiles equal the single value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return median(xs), median(xs)
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		n := len(s)
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// relSpread is the interquartile distance as a share of the median, the
// steadiness figure the benchmark contract bounds.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank method (the epsilon keeps a rank that is a whole number in
// exact arithmetic from rounding up). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailPercentile returns the highest percentile of n samples that may be
// reported and is not above want: a percentile is reportable only when at
// least ten samples lie beyond it, so a p99 needs 1000 samples, a run of
// 200 cycles reports p95 in its place and a 36-point sweep p72. Below 20
// samples not even the median qualifies; 50 is the floor.
func tailPercentile(n int, want float64) float64 {
	if n < 20 {
		return 50
	}
	return math.Min(want, 100*(1-10/float64(n)))
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// callStats is the per-call record of one decorated layer entry point:
// call count, busy time and a log2 histogram of call durations (bucket i
// holds durations d with bits.Len64(d ns) == i, i.e. [2^(i-1), 2^i) ns).
// It is fixed-size so recording never allocates.
type callStats struct {
	Calls  uint64     `json:"calls"`
	BusyNs int64      `json:"busy_ns"`
	Hist   [40]uint64 `json:"log2_hist_ns"`
}

func (s *callStats) add(d time.Duration) {
	s.Calls++
	s.BusyNs += int64(d)
	b := bits.Len64(uint64(d))
	if b >= len(s.Hist) {
		b = len(s.Hist) - 1
	}
	s.Hist[b]++
}

func (s *callStats) merge(o *callStats) {
	s.Calls += o.Calls
	s.BusyNs += o.BusyNs
	for i, c := range o.Hist {
		s.Hist[i] += c
	}
}

func (s *callStats) busySeconds() float64 { return float64(s.BusyNs) / 1e9 }

// quantileNs estimates the q-quantile (0..1) of the recorded durations by
// linear interpolation inside the histogram bucket holding it; the
// resolution is the bucket's power-of-two width.
func (s *callStats) quantileNs(q float64) float64 {
	if s.Calls == 0 {
		return 0
	}
	target := q * float64(s.Calls)
	seen := 0.0
	for i, c := range s.Hist {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, hi := 0.0, 1.0
			if i > 0 {
				lo, hi = math.Ldexp(1, i-1), math.Ldexp(1, i)
			}
			return lo + (hi-lo)*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	return math.Ldexp(1, len(s.Hist)-1)
}
