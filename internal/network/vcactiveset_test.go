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

// TestVCActiveSetDrainsLanes checks the second-level scheduler's
// bookkeeping, mirroring TestActiveSetDrainsWorklist: once the network is
// idle, no router may retain active lanes.
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
// sorted-insertion arrival staging path.
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
