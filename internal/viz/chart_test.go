package viz

import (
	"math"
	"strings"
	"testing"
)

func TestChartRendersSeries(t *testing.T) {
	xs := []float64{0.002, 0.004, 0.006, 0.008}
	ch := NewChart(xs)
	ch.Add("det", []float64{40, 55, 80, 200})
	ch.Add("adp", []float64{38, 45, 60, 90})
	out := ch.Render()
	if !strings.Contains(out, "a=det") || !strings.Contains(out, "b=adp") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Fatal("marks missing")
	}
	if !strings.Contains(out, "0.002") || !strings.Contains(out, "0.008") {
		t.Fatalf("x labels missing:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 12 {
		t.Fatalf("too few lines: %d", len(lines))
	}
}

func TestChartSaturatedAndMissing(t *testing.T) {
	xs := []float64{0.01, 0.02}
	ch := NewChart(xs)
	ch.Add("s", []float64{100, math.Inf(1)})
	ch.Add("m", []float64{math.NaN(), 120})
	out := ch.Render()
	if !strings.Contains(out, "^") {
		t.Fatalf("saturated marker missing:\n%s", out)
	}
}

func TestChartAllSaturated(t *testing.T) {
	xs := []float64{1, 2}
	ch := NewChart(xs)
	ch.Add("x", []float64{math.Inf(1), math.Inf(1)})
	out := ch.Render() // must not panic on empty finite range
	if out == "" {
		t.Fatal("empty render")
	}
}

func TestChartMismatchedSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched series did not panic")
		}
	}()
	NewChart([]float64{1, 2}).Add("bad", []float64{1})
}
