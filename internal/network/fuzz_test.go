package network

import (
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// TestPropertyEngineConservation drives randomized small configurations
// end-to-end and asserts the engine's global invariants:
//
//   - conservation: generated = delivered (+0 drops for connected faults),
//   - every traced message history is structurally valid,
//   - no worm ever hops into a faulty node,
//   - the network drains completely once generation stops.
func TestPropertyEngineConservation(t *testing.T) {
	cfgCount := 0
	err := quick.Check(func(seed uint64, kRaw, nRaw, vRaw, nfRaw, lenRaw uint8, adaptive bool) bool {
		ks := []int{4, 5, 8}
		k := ks[int(kRaw)%len(ks)]
		n := 2 + int(nRaw)%2 // 2-D or 3-D
		v := 3 + int(vRaw)%4 // 3..6
		msgLen := 1 + int(lenRaw)%12
		tor := topology.New(k, n)
		nf := int(nfRaw) % (tor.Nodes() / 8)
		r := rng.New(seed)
		fs, err := fault.Random(tor, nf, r.Split(1))
		if err != nil {
			return true // impossible placement; skip
		}
		var alg *routing.Algorithm
		mode := message.Deterministic
		if adaptive {
			alg, err = routing.NewAdaptive(tor, fs, v)
			mode = message.Adaptive
		} else {
			alg, err = routing.NewDeterministic(tor, fs, v)
		}
		if err != nil {
			return false
		}
		guard := &faultGuard{Recorder: trace.NewRecorder(), tb: t, fs: fs}
		gen := poissonSource(tor, fs, 0.003, msgLen, mode, traffic.NewUniform(fs), r.Split(2))
		col := metrics.NewCollector(0)
		p := DefaultParams(v)
		p.BufDepth = 1 + int(seed%3)
		p.Delta = int64(seed % 5)
		p.Tracer = guard
		nw := New(tor, fs, alg, gen, col, p, r.Split(3))
		for nw.Now() < 1500 {
			nw.Step()
		}
		nw.StopGeneration()
		for !nw.Idle() && nw.Now() < 400_000 {
			nw.Step()
		}
		if !nw.Idle() {
			t.Logf("seed %d: did not drain (k=%d n=%d v=%d nf=%d len=%d adaptive=%v)",
				seed, k, n, v, nf, msgLen, adaptive)
			return false
		}
		if col.DeliveredCount() != col.GeneratedCount() {
			t.Logf("seed %d: conservation violated %d/%d dropped=%d",
				seed, col.DeliveredCount(), col.GeneratedCount(), col.Finalize(nw.Now(), tor.Nodes(), false).Dropped)
			return false
		}
		if err := guard.Verify(tor); err != nil {
			t.Logf("seed %d: trace verification: %v", seed, err)
			return false
		}
		cfgCount++
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
	if cfgCount == 0 {
		t.Fatal("no configurations exercised")
	}
}
