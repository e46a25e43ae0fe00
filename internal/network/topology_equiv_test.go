package network

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// runTraced drives one engine over net with the given algorithm and params
// tweak, mirroring core.Run's rng stream discipline (Split(1) workload,
// Split(2) engine), and returns the full event trace plus finalised
// results. It is the shared chassis of the topology-seam equivalence tests.
func runTraced(t *testing.T, net topology.Network, algName string, nf int, tweak func(*Params)) ([]trace.Event, metrics.Results) {
	t.Helper()
	fs := fault.NewSet(net)
	if nf > 0 {
		var err error
		fs, err = fault.Random(net, nf, rng.New(41))
		if err != nil {
			t.Fatal(err)
		}
	}
	alg, err := routing.New(algName, net, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(123)
	pattern, err := traffic.NewPattern("uniform", net, fs)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	col := metrics.NewCollector(0)
	p := DefaultParams(4)
	p.Tracer = rec
	if tweak != nil {
		tweak(&p)
	}
	// One pool for source and engine, as core.NewEngine wires it, so runs
	// exercise recycling end-to-end (source allocation through delivery).
	pool := message.NewPool(net.N(), false)
	p.Pool = pool
	gen, err := traffic.NewSource("poisson", traffic.Env{
		T: net, F: fs, Sources: fs.HealthyNodes(),
		Lambda: 0.004, MsgLen: 16, Mode: alg.BaseMode(),
		Pattern: pattern, R: r.Split(1), Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw := New(net, fs, alg, gen, col, p, r.Split(2))
	for nw.Now() < 4000 {
		nw.Step()
	}
	nw.StopGeneration()
	for !nw.Idle() && nw.Now() < 400_000 {
		nw.Step()
	}
	if !nw.Idle() {
		t.Fatal("network did not drain")
	}
	return rec.All(), col.Finalize(nw.Now(), len(fs.HealthyNodes()), false)
}

// assertSameRun fails unless two traced runs are bit-identical: same event
// sequence (every injection, hop, stop and delivery at the same cycle) and
// same finalised results.
func assertSameRun(t *testing.T, evA, evB []trace.Event, resA, resB metrics.Results, what string) {
	t.Helper()
	if len(evA) == 0 {
		t.Fatalf("%s: no events traced", what)
	}
	if len(evA) != len(evB) {
		t.Fatalf("%s: event counts differ: %d vs %d", what, len(evA), len(evB))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("%s: event %d differs:\nA: %+v\nB: %+v", what, i, evA[i], evB[i])
		}
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("%s: results differ:\nA: %+v\nB: %+v", what, resA, resB)
	}
}

// TestTopologyRegistryMatchesDirectTorus is the topology refactor's
// bit-identity proof, the network-layer analogue of
// traffic.TestPoissonMatchesReferenceGenerator: an engine whose torus was
// built through the topology registry (the path core.Run takes since the
// topology seam landed) must produce the exact same event trace as one
// built on the direct topology.New constructor the seed code called.
func TestTopologyRegistryMatchesDirectTorus(t *testing.T) {
	for _, tc := range []struct {
		name string
		alg  string
		nf   int
	}{
		{"det-faultfree", "det", 0},
		{"det-faults", "det", 6},
		{"adaptive-faults", "adaptive", 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, err := topology.NewNetwork("torus:k=8,n=2")
			if err != nil {
				t.Fatal(err)
			}
			evReg, resReg := runTraced(t, reg, tc.alg, tc.nf, nil)
			evDirect, resDirect := runTraced(t, topology.New(8, 2), tc.alg, tc.nf, nil)
			assertSameRun(t, evReg, evDirect, resReg, resDirect, "registry vs direct")
		})
	}
}

// TestUniformLatmapMatchesGlobalLatency closes the per-link latency loop:
// an overlay assigning every channel latency 3 must reproduce, event for
// event, a run with the global Params.LinkLatency = 3. The overlay run
// takes the non-uniform staging path (sorted insertion), the global run
// the FIFO path, so agreement pins both.
func TestUniformLatmapMatchesGlobalLatency(t *testing.T) {
	tor := topology.New(4, 2)
	var sb strings.Builder
	for _, ch := range topology.ChannelsOf(tor) {
		fmt.Fprintf(&sb, "%d,%d,3\n", ch.Src, int(ch.Port))
	}
	file := filepath.Join(t.TempDir(), "lat.csv")
	if err := os.WriteFile(file, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	overlay, err := topology.NewNetwork("torus:k=4,n=2,latmap=" + file)
	if err != nil {
		t.Fatal(err)
	}
	evOv, resOv := runTraced(t, overlay, "det", 0, nil)
	evGl, resGl := runTraced(t, topology.New(4, 2), "det", 0, func(p *Params) { p.LinkLatency = 3 })
	assertSameRun(t, evOv, evGl, resOv, resGl, "latmap vs global latency")
}

// TestMeshNoWraparoundHops is the mesh boundary proof at the event-trace
// level: over a traced faulted mesh run, every recorded hop must move to a
// plain-Manhattan neighbour — a coordinate step of exactly 1 in exactly
// one dimension, never the k-1 jump a wraparound link would record.
func TestMeshNoWraparoundHops(t *testing.T) {
	msh := topology.NewMesh(8, 2)
	events, _ := runTraced(t, msh, "det", 4, nil)
	pos := map[uint64]topology.NodeID{}
	hops := 0
	for _, ev := range events {
		switch ev.Kind {
		case trace.Inject:
			pos[ev.Msg] = ev.Node
		case trace.Hop:
			cur, ok := pos[ev.Msg]
			if !ok {
				t.Fatalf("hop before injection for message %d", ev.Msg)
			}
			diff := 0
			for d := 0; d < msh.N(); d++ {
				dc := msh.Coord(cur, d) - msh.Coord(ev.Node, d)
				if dc < 0 {
					dc = -dc
				}
				diff += dc
			}
			if diff != 1 {
				t.Fatalf("message %d hopped %s -> %s (plain distance %d): wraparound link on a mesh",
					ev.Msg, msh.FormatNode(cur), msh.FormatNode(ev.Node), diff)
			}
			pos[ev.Msg] = ev.Node
			hops++
		}
	}
	if hops == 0 {
		t.Fatal("no hops traced")
	}
}
