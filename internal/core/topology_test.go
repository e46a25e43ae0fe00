package core

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/topology"
)

// TestTopologySpecDefaultsToLegacyTorus pins what is left of the legacy
// (k, n) shorthand: DefaultConfig's size arguments are written out as the
// paper's torus spec, and there is no other default — an empty Topology is
// rejected. (That the registry-built torus perturbs nothing is the network
// package's TestTopologyRegistryMatchesDirectTorus.)
func TestTopologySpecDefaultsToLegacyTorus(t *testing.T) {
	cfg := DefaultConfig(4, 2, 0.004)
	if cfg.Topology != "torus:k=4,n=2" {
		t.Fatalf("DefaultConfig(4, 2).Topology = %q", cfg.Topology)
	}
	net, err := cfg.BuildTopology()
	if err != nil || net.Kind() != "torus" || net.K() != 4 || net.N() != 2 {
		t.Fatalf("BuildTopology() = %v, %v; want the 4-ary 2-cube", net, err)
	}
	cfg.Topology = ""
	if err := cfg.Validate(); err == nil {
		t.Fatal("empty Topology accepted")
	}
}

// TestRunOnMesh exercises the full stack on a mesh: det, adaptive and
// valiant over the SW-Based machinery, fault-free and faulted.
func TestRunOnMesh(t *testing.T) {
	for _, tc := range []struct {
		alg string
		nf  int
	}{
		{"det", 0},
		{"det", 3},
		{"adaptive", 0},
		{"adaptive", 2},
		{"valiant", 3},
	} {
		cfg := DefaultConfig(4, 2, 0.004)
		cfg.Topology = "mesh:k=4,n=2"
		cfg.Algorithm = tc.alg
		cfg.Faults.RandomNodes = tc.nf
		cfg.WarmupMessages, cfg.MeasureMessages = 100, 600
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s nf=%d: %v", tc.alg, tc.nf, err)
		}
		if res.Delivered < 600 || res.MeanLatency <= 0 {
			t.Fatalf("%s nf=%d: implausible results %+v", tc.alg, tc.nf, res)
		}
	}
}

// TestMeshVsTorusSmokeSweep is the figures-style scenario smoke: a small λ
// sweep on the same-size torus and mesh. Every point must complete
// unsaturated at these loads, latency must grow with λ, and the mesh —
// whose average distance is larger without wraparound shortcuts — must
// show a higher zero-ish-load latency than the torus.
func TestMeshVsTorusSmokeSweep(t *testing.T) {
	sweep := func(topo string) []float64 {
		var out []float64
		for _, lambda := range []float64{0.002, 0.006} {
			cfg := DefaultConfig(8, 2, lambda)
			cfg.Topology = topo
			cfg.WarmupMessages, cfg.MeasureMessages = 200, 1500
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s λ=%g: %v", topo, lambda, err)
			}
			if res.Saturated {
				t.Fatalf("%s λ=%g saturated in the smoke regime: %+v", topo, lambda, res)
			}
			out = append(out, res.MeanLatency)
		}
		return out
	}
	tor := sweep("torus:k=8,n=2")
	msh := sweep("mesh:k=8,n=2")
	if !(tor[0] > 0 && msh[0] > 0) {
		t.Fatalf("non-positive latencies: torus %v, mesh %v", tor, msh)
	}
	if msh[0] <= tor[0] {
		t.Errorf("mesh low-load latency %.1f not above torus %.1f (mesh has no wraparound shortcuts)", msh[0], tor[0])
	}
	if tor[1] <= tor[0] || msh[1] <= msh[0] {
		t.Errorf("latency not increasing with load: torus %v, mesh %v", tor, msh)
	}
}

// TestValidateTopology pins the topology-aware validation added with the
// seam: unknown topologies and fault specifications that do not fit the
// selected network are all rejected before a run starts.
func TestValidateTopology(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig(8, 2, 0.004)
		cfg.WarmupMessages, cfg.MeasureMessages = 10, 50
		return cfg
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"unknown topology", func(c *Config) { c.Topology = "moebius" }, "unknown topology"},
		{"bad spec parameter", func(c *Config) { c.Topology = "torus:k=1" }, "radix"},
		{"hotspot node beyond mesh", func(c *Config) {
			c.Topology = "mesh:k=2,n=2"
			c.Pattern = "hotspot:node=60"
		}, "out of range"},
		{"shape dim out of range", func(c *Config) {
			c.Faults.Shapes = []ShapeStamp{{Spec: fault.ShapeSpec{Shape: fault.ShapeBar, A: 2}, DimA: 0, DimB: 5}}
		}, "out of range"},
		{"shape dims equal", func(c *Config) {
			c.Faults.Shapes = []ShapeStamp{{Spec: fault.ShapeSpec{Shape: fault.ShapeBar, A: 2}, DimA: 1, DimB: 1}}
		}, "distinct"},
		{"shape base invalid", func(c *Config) {
			c.Faults.Shapes = []ShapeStamp{{Spec: fault.ShapeSpec{Shape: fault.ShapeBar, A: 2}, DimA: 0, DimB: 1, Base: 9999}}
		}, "out of range"},
		{"shape overflows mesh edge", func(c *Config) {
			c.Topology = "mesh:k=8,n=2"
			c.Faults.Shapes = []ShapeStamp{{
				Spec: fault.ShapeSpec{Shape: fault.ShapeRect, A: 3, B: 3, AnchorA: 6, AnchorB: 6},
				DimA: 0, DimB: 1,
			}}
		}, "does not fit"},
		{"link off the mesh edge", func(c *Config) {
			c.Topology = "mesh:k=8,n=2"
			c.Faults.Links = []struct {
				Src  topology.NodeID
				Port topology.Port
			}{{Src: 0, Port: topology.PortFor(0, topology.Minus)}}
		}, "does not exist"},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// The same shapes that overflow a mesh stamp cleanly on the torus.
	cfg := base()
	cfg.Faults.Shapes = []ShapeStamp{{
		Spec: fault.ShapeSpec{Shape: fault.ShapeRect, A: 3, B: 3, AnchorA: 6, AnchorB: 6},
		DimA: 0, DimB: 1,
	}}
	if err := cfg.Validate(); err != nil {
		t.Errorf("wrapping shape rejected on the torus: %v", err)
	}
	// And a valid mesh config passes end to end.
	cfg = base()
	cfg.Topology = "mesh:k=8,n=2"
	cfg.Faults.Shapes = []ShapeStamp{{
		Spec: fault.ShapeSpec{Shape: fault.ShapeBar, A: 3, AnchorA: 2, AnchorB: 2},
		DimA: 0, DimB: 1,
	}}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid mesh config rejected: %v", err)
	}
}

// TestValidateMinVIsTopologyAware pins the mesh VC dividend end to end:
// dropping the dateline classes lowers the legal V minimum on meshes
// (Info.MinVNoWrap), while the torus keeps the paper's requirement.
func TestValidateMinVIsTopologyAware(t *testing.T) {
	cfg := DefaultConfig(4, 2, 0.004)
	cfg.V = 1
	cfg.WarmupMessages, cfg.MeasureMessages = 50, 300
	if err := cfg.Validate(); err == nil {
		t.Error("det V=1 accepted on a torus (dateline classes need 2)")
	}
	cfg.Topology = "mesh:k=4,n=2"
	if err := cfg.Validate(); err != nil {
		t.Errorf("det V=1 rejected on a mesh: %v", err)
	}
	if res, err := Run(cfg); err != nil || res.Delivered < 300 {
		t.Errorf("det V=1 mesh run: res=%+v err=%v", res, err)
	}
	cfg.Algorithm = "adaptive"
	cfg.V = 2
	if err := cfg.Validate(); err != nil {
		t.Errorf("adaptive V=2 rejected on a mesh: %v", err)
	}
	cfg.Topology = ""
	if err := cfg.Validate(); err == nil {
		t.Error("adaptive V=2 accepted on a torus (needs 2 escape + 1 adaptive)")
	}
}
