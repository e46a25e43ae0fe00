// Package cmd_test holds the one check that spans the commands: the tools
// that look at a faulted network look at the network the engine runs.
package cmd_test

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/viz"
)

// TestToolsPlaceTheEnginesFaults: "nf random faults, seed s" on one network
// is one fault set. The faulty-node list `analyze -mode livelock` prints,
// the plane and regions `swtrace -faults` draws without -dst and the ones
// it traces through with one must all be core.BuildFaults' for the same
// (spec, nf, seed) — the set NewEngine hands the engine. Before the tools
// were built on core.Config they drew from rng.New(seed) instead of the
// engine's Split(0xfa017) and every row here differed.
func TestToolsPlaceTheEnginesFaults(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+"/", "./analyze", "./swtrace").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	tool := func(t *testing.T, name string, args ...string) string {
		out, err := exec.Command(bin+"/"+name, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}
	for _, tc := range []struct {
		spec string
		nf   int
		seed uint64
	}{
		{"torus:k=8,n=2", 5, 4},
		{"torus:k=8,n=2", 9, 2},
		{"mesh:k=8,n=2", 4, 7},
	} {
		t.Run(fmt.Sprintf("%s/nf=%d,seed=%d", tc.spec, tc.nf, tc.seed), func(t *testing.T) {
			net, err := core.Config{Topology: tc.spec}.BuildTopology()
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.BuildFaults(net, core.FaultSpec{RandomNodes: tc.nf}, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			drawn := viz.RenderPlane(want) + viz.RenderRegions(want)
			nf, seed := strconv.Itoa(tc.nf), strconv.FormatUint(tc.seed, 10)

			// swtrace refuses a faulty endpoint: trace between healthy ones.
			healthy := want.HealthyNodes()
			coords := func(id topology.NodeID) string {
				return fmt.Sprintf("%d,%d", net.Coord(id, 0), net.Coord(id, 1))
			}
			got := tool(t, "swtrace", "-topo", tc.spec, "-faults", nf, "-seed", seed,
				"-src", coords(healthy[0]), "-dst", coords(healthy[len(healthy)-1]))
			if !strings.HasPrefix(got, drawn) {
				t.Errorf("swtrace -topo %s -faults %s -seed %s traces through\n%s\nthe engine runs\n%s", tc.spec, nf, seed, got, drawn)
			}
			line := fmt.Sprintf("faulty nodes: %v\n", want.FaultyNodes())
			if got := tool(t, "analyze", "-mode", "livelock", "-topo", tc.spec, "-faults", nf, "-seed", seed); !strings.HasPrefix(got, line) {
				t.Errorf("analyze -mode livelock -topo %s -faults %s -seed %s starts\n%s\nthe engine runs\n%s", tc.spec, nf, seed, got, line)
			}
			if got := tool(t, "swtrace", "-topo", tc.spec, "-faults", nf, "-seed", seed); got != drawn {
				t.Errorf("swtrace -topo %s -faults %s -seed %s draws\n%s\nthe engine runs\n%s", tc.spec, nf, seed, got, drawn)
			}
		})
	}
}
