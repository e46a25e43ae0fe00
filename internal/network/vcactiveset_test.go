package network

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestVCActiveSetMatchesDenseScan is the per-VC scheduler's equivalence
// proof at the event level, mirroring TestActiveSetMatchesDenseScan one
// scheduler level down: an engine visiting only each busy router's active
// lanes must produce the exact same trace — every injection, hop, stop,
// re-injection and delivery at the same cycle — as one dense-scanning all
// Ports()×V lanes, for the same seed, across topology families, routing
// algorithms and fault patterns. Anything weaker (just comparing final
// means) could hide reordered rng draws that cancel out on average.
func TestVCActiveSetMatchesDenseScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  func() topology.Network
		alg  string
		nf   int
	}{
		{"torus-det-faultfree", func() topology.Network { return topology.New(8, 2) }, "det", 0},
		{"torus-det-faults", func() topology.Network { return topology.New(8, 2) }, "det", 6},
		{"torus-adaptive-faults", func() topology.Network { return topology.New(8, 2) }, "adaptive", 6},
		{"mesh-det-faultfree", func() topology.Network { return topology.NewMesh(8, 2) }, "det", 0},
		{"mesh-det-faults", func() topology.Network { return topology.NewMesh(8, 2) }, "det", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evVC, resVC := runTraced(t, tc.net(), tc.alg, tc.nf, nil)
			evDense, resDense := runTraced(t, tc.net(), tc.alg, tc.nf,
				func(p *Params) { p.DenseVCScan = true })
			assertSameRun(t, evVC, evDense, resVC, resDense, "vc-active-set vs dense-vc-scan")
		})
	}
}

// TestVCActiveSetDrainsLanes checks the second-level scheduler's
// bookkeeping, mirroring TestActiveSetDrainsWorklist: once the network is
// idle, no router may retain active lanes (lanes must retire as they
// drain, or the per-router phases degenerate back to a Ports()×V scan).
func TestVCActiveSetDrainsLanes(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	alg, err := routing.New("det", tor, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	gen := poissonSource(tor, fs, 0.004, 16, alg.BaseMode(), traffic.NewUniform(fs), r.Split(1))
	col := metrics.NewCollector(0)
	nw := New(tor, fs, alg, gen, col, DefaultParams(4), r.Split(2))
	for nw.Now() < 2000 {
		nw.Step()
	}
	nw.StopGeneration()
	for !nw.Idle() && nw.Now() < 200_000 {
		nw.Step()
	}
	if !nw.Idle() {
		t.Fatal("network did not drain")
	}
	for id := range nw.routers {
		if n := nw.routers[id].LaneCount(); n != 0 {
			t.Fatalf("idle network: router %d still has %d active lanes", id, n)
		}
	}
}

// latmapTorus builds a 4-ary 2-cube carrying a non-uniform per-link latency
// overlay (latencies 1..3, varied per channel), forcing the engine's
// sorted-insertion arrival staging path. Shared by the ablation-matrix and
// arena-equivalence tests.
func latmapTorus(t *testing.T) topology.Network {
	t.Helper()
	base := topology.New(4, 2)
	var lines []byte
	for _, ch := range topology.ChannelsOf(base) {
		lat := 1 + (int(ch.Src)*7+int(ch.Port))%3
		lines = fmt.Appendf(lines, "%d,%d,%d\n", ch.Src, int(ch.Port), lat)
	}
	file := filepath.Join(t.TempDir(), "lat.csv")
	if err := os.WriteFile(file, lines, 0o644); err != nil {
		t.Fatal(err)
	}
	net, err := topology.NewNetwork("torus:k=4,n=2,latmap=" + file)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestSchedulerAblationMatrix locks the full knob cube: every combination
// of DenseScan × DenseVCScan × NoLinkCache × NoArena must produce the same
// event trace and results as the all-knobs-off default, on one seed, for
// both a faulted mesh and a torus carrying a non-uniform per-link latency
// overlay (the two configurations that exercise every conditional the
// knobs gate: mesh edges, absorption/re-injection, due-ordered arrival
// staging, and message recycling on delivery and drop).
func TestSchedulerAblationMatrix(t *testing.T) {
	for _, env := range []struct {
		name string
		net  func(t *testing.T) topology.Network
		alg  string
		nf   int
	}{
		{"faulted-mesh", func(*testing.T) topology.Network { return topology.NewMesh(8, 2) }, "det", 4},
		{"latmap-torus", latmapTorus, "det", 0},
	} {
		t.Run(env.name, func(t *testing.T) {
			evBase, resBase := runTraced(t, env.net(t), env.alg, env.nf, nil)
			for knobs := 1; knobs < 16; knobs++ { // 0 is the baseline itself
				dense := knobs&1 != 0
				denseVC := knobs&2 != 0
				noCache := knobs&4 != 0
				noArena := knobs&8 != 0
				name := fmt.Sprintf("dense=%v,denseVC=%v,noCache=%v,noArena=%v",
					dense, denseVC, noCache, noArena)
				ev, res := runTraced(t, env.net(t), env.alg, env.nf, func(p *Params) {
					p.DenseScan, p.DenseVCScan, p.NoLinkCache, p.NoArena = dense, denseVC, noCache, noArena
				})
				assertSameRun(t, evBase, ev, resBase, res, name)
			}
		})
	}
}
