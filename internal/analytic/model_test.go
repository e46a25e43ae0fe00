package analytic

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestMeanRingDist(t *testing.T) {
	cases := map[int]float64{
		2: 0.5, // offsets {0,1} -> {0,1}
		4: 1.0, // {0,1,2,1}
		8: 2.0, // {0,1,2,3,4,3,2,1}
		3: 2.0 / 3.0,
	}
	for k, want := range cases {
		if got := MeanRingDist(k); math.Abs(got-want) > 1e-12 {
			t.Errorf("MeanRingDist(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestMeanDistance(t *testing.T) {
	m := Model{K: 8, N: 2}
	if got := m.MeanDistance(); got != 4 {
		t.Fatalf("8-ary 2-cube mean distance = %v, want 4", got)
	}
	m3 := Model{K: 8, N: 3}
	if got := m3.MeanDistance(); got != 6 {
		t.Fatalf("8-ary 3-cube mean distance = %v, want 6", got)
	}
}

func TestZeroLoadLimit(t *testing.T) {
	m := Model{K: 8, N: 2, V: 4, M: 32, Lambda: 1e-6}
	lat, err := m.MeanLatency()
	if err != nil {
		t.Fatal(err)
	}
	// At vanishing load the latency must approach M + D = 36.
	if lat < 35 || lat > 40 {
		t.Fatalf("zero-load latency = %v, want ~36", lat)
	}
}

func TestMonotoneInLoad(t *testing.T) {
	prev := 0.0
	for _, l := range []float64{0.001, 0.004, 0.008, 0.012, 0.016} {
		m := Model{K: 8, N: 2, V: 4, M: 32, Lambda: l}
		lat, err := m.MeanLatency()
		if err != nil {
			// Saturation encountered: acceptable for the highest rates only.
			if l < 0.01 {
				t.Fatalf("saturated already at λ=%v", l)
			}
			return
		}
		if lat < prev {
			t.Fatalf("latency not monotone at λ=%v: %v < %v", l, lat, prev)
		}
		prev = lat
	}
}

func TestMonotoneInMessageLength(t *testing.T) {
	short := Model{K: 8, N: 2, V: 4, M: 32, Lambda: 0.004}
	long := Model{K: 8, N: 2, V: 4, M: 64, Lambda: 0.004}
	ls, err := short.MeanLatency()
	if err != nil {
		t.Fatal(err)
	}
	ll, err := long.MeanLatency()
	if err != nil {
		t.Fatal(err)
	}
	if ll <= ls {
		t.Fatalf("M=64 latency %v not above M=32 latency %v", ll, ls)
	}
}

func TestFaultsIncreaseLatency(t *testing.T) {
	clean := Model{K: 8, N: 2, V: 4, M: 32, Lambda: 0.004}
	faulty := clean
	faulty.Nf = 5
	lc, err := clean.MeanLatency()
	if err != nil {
		t.Fatal(err)
	}
	lf, err := faulty.MeanLatency()
	if err != nil {
		t.Fatal(err)
	}
	if lf <= lc {
		t.Fatalf("faulty latency %v not above clean %v", lf, lc)
	}
	// Delta adds linearly to the absorption cost.
	withDelta := faulty
	withDelta.Delta = 100
	ld, err := withDelta.MeanLatency()
	if err != nil {
		t.Fatal(err)
	}
	if ld <= lf {
		t.Fatal("Delta did not increase faulty latency")
	}
}

func TestAdaptiveNeverWorseThanDeterministic(t *testing.T) {
	for _, l := range []float64{0.002, 0.006, 0.010} {
		det := Model{K: 8, N: 2, V: 4, M: 32, Lambda: l}
		adp := det
		adp.Adaptive = true
		ld, errD := det.MeanLatency()
		la, errA := adp.MeanLatency()
		if errA != nil && errD == nil {
			t.Fatalf("adaptive saturated before deterministic at λ=%v", l)
		}
		if errD != nil || errA != nil {
			continue
		}
		if la > ld+1e-9 {
			t.Fatalf("λ=%v: adaptive %v above deterministic %v", l, la, ld)
		}
	}
	det := Model{K: 8, N: 2, V: 6, M: 32, Lambda: 0.001}
	adp := det
	adp.Adaptive = true
	if adp.SaturationRate() < det.SaturationRate() {
		t.Fatal("adaptive saturation below deterministic")
	}
}

func TestMoreVCsRaiseSaturation(t *testing.T) {
	v4 := Model{K: 8, N: 2, V: 4, M: 32, Lambda: 0.001}
	v10 := Model{K: 8, N: 2, V: 10, M: 32, Lambda: 0.001}
	if v10.SaturationRate() < v4.SaturationRate() {
		t.Fatalf("V=10 saturation %v below V=4 %v", v10.SaturationRate(), v4.SaturationRate())
	}
}

func TestSaturationDetected(t *testing.T) {
	m := Model{K: 8, N: 2, V: 4, M: 32, Lambda: 0.05}
	if _, err := m.MeanLatency(); err == nil {
		t.Fatal("λ=0.05 (flit load > 1) not flagged saturated")
	}
	sat := m.SaturationRate()
	if sat <= 0 || sat >= 1.0/32 {
		t.Fatalf("saturation rate %v out of range", sat)
	}
}

func TestInvalidParams(t *testing.T) {
	for _, m := range []Model{
		{K: 1, N: 2, V: 4, M: 32, Lambda: 0.001},
		{K: 8, N: 0, V: 4, M: 32, Lambda: 0.001},
		{K: 8, N: 2, V: 0, M: 32, Lambda: 0.001},
		{K: 8, N: 2, V: 4, M: 0, Lambda: 0.001},
		{K: 8, N: 2, V: 4, M: 32, Lambda: 0},
	} {
		if _, err := m.MeanLatency(); err == nil {
			t.Errorf("invalid model %+v accepted", m)
		}
	}
}

// The headline validation: the model must track the simulator below
// saturation. The runs are deterministic; model vs sim read 44.01/43.27
// (1.70 %), 52.18/51.18 (1.96 %) and 60.66/60.53 (0.21 %) at λ 0.002,
// 0.004 and 0.006. Each λ is bounded at max(3 × observed, 1 %), so a
// change that moves either side by a few percent fails here.
func TestModelTracksSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation comparison")
	}
	for _, tc := range []struct {
		lambda, maxErr float64
	}{{0.002, 0.051}, {0.004, 0.0588}, {0.006, 0.01}} {
		cfg := core.DefaultConfig(8, 2, tc.lambda)
		cfg.V = 4
		cfg.WarmupMessages = 300
		cfg.MeasureMessages = 4000
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := Model{K: 8, N: 2, V: 4, M: 32, Lambda: tc.lambda}
		lat, err := m.MeanLatency()
		if err != nil {
			t.Fatalf("model saturated at λ=%v where simulator did not", tc.lambda)
		}
		relErr := math.Abs(lat-res.MeanLatency) / res.MeanLatency
		t.Logf("λ=%v: model %.2f vs sim %.2f (rel err %.2f%%)", tc.lambda, lat, res.MeanLatency, relErr*100)
		if relErr > tc.maxErr {
			t.Errorf("λ=%v: model %v vs sim %v (rel err %.2f%%, bound %.1f%%)",
				tc.lambda, lat, res.MeanLatency, relErr*100, tc.maxErr*100)
		}
	}
}
