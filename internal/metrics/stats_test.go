package metrics

import (
	"math"
	"testing"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if !almost(w.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", w.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if !almost(w.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("var = %v", w.Var())
	}
	if w.Max() != 9 {
		t.Fatalf("max = %v", w.Max())
	}
	if w.CI95() <= 0 {
		t.Fatal("CI95 should be positive")
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.CI95() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	w.Add(42)
	if w.Mean() != 42 || w.Var() != 0 || w.Max() != 42 {
		t.Fatal("single observation wrong")
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("q1 = %v", got)
	}
	if got := s.Quantile(0.5); !almost(got, 50.5, 1e-9) {
		t.Fatalf("median = %v", got)
	}
	if got := s.Quantile(0.9); !almost(got, 90.1, 1e-9) {
		t.Fatalf("p90 = %v", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 {
		t.Fatal("empty sample not zero")
	}
}

func TestSampleInterleavedAddQuery(t *testing.T) {
	var s Sample
	s.Add(3)
	s.Add(1)
	if s.Quantile(0) != 1 {
		t.Fatal("min wrong")
	}
	s.Add(0.5) // add after query must re-sort
	if s.Quantile(0) != 0.5 {
		t.Fatal("re-sort after add failed")
	}
}
