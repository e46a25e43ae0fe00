package topology

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/registry"
)

// TestRegistryBuildsRegisteredTopologies checks the happy paths of the
// registry: names, aliases, parameters and defaults all resolve to the
// expected concrete networks.
func TestRegistryBuildsRegisteredTopologies(t *testing.T) {
	for _, tc := range []struct {
		spec        string
		kind        string
		k, n, nodes int
		wraps       bool
	}{
		{"torus", "torus", 8, 2, 64, true},
		{"torus:k=4,n=3", "torus", 4, 3, 64, true},
		{"k-ary-n-cube:k=6,n=2", "torus", 6, 2, 36, true},
		{"mesh", "mesh", 8, 2, 64, false},
		{"mesh:k=5,n=2", "mesh", 5, 2, 25, false},
		{"hypercube:n=4", "torus", 2, 4, 16, true},
		{"binary-n-cube:n=3", "torus", 2, 3, 8, true},
	} {
		net, err := NewNetwork(tc.spec)
		if err != nil {
			t.Errorf("NewNetwork(%q): %v", tc.spec, err)
			continue
		}
		if net.Kind() != tc.kind || net.K() != tc.k || net.N() != tc.n ||
			net.Nodes() != tc.nodes || net.Wraps() != tc.wraps {
			t.Errorf("NewNetwork(%q) = %s (kind %s, k=%d, n=%d, nodes=%d, wraps=%v)",
				tc.spec, net, net.Kind(), net.K(), net.N(), net.Nodes(), net.Wraps())
		}
	}
}

// TestRegistryRejectsBadSpecs pins the topology-specific error paths:
// unknown names, out-of-range and unknown parameters (the grammar's own
// errors are internal/registry's).
func TestRegistryRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"moebius",         // unknown name
		"torus:k=1",       // radix below 2
		"torus:n=0",       // dimension below 1
		"torus:k=abc",     // not an integer
		"torus:radix=8",   // unknown parameter
		"mesh:k=9999,n=9", // over the node limit
		"hypercube:k=3",   // hypercube has no radix parameter
		"torus:",          // grammar error surfaces through NewNetwork
	} {
		if _, err := NewNetwork(spec); err == nil {
			t.Errorf("NewNetwork(%q) accepted", spec)
		}
	}
	if _, err := NewNetwork("moebius"); err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown-topology error does not list the registry: %v", err)
	}
}

// TestRegistryDuplicatePanics pins the build-time contract: double
// registration and nil factories are programming errors.
func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(registry.Info{Name: "torus"}, func(registry.Spec) (Network, error) { return New(8, 2), nil })
}

func TestRegistryNilFactoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil factory did not panic")
		}
	}()
	Register(registry.Info{Name: "brand-new"}, nil)
}

// TestMeshGeometry checks the mesh against the torus where they must agree
// (interior geometry) and differ (edges, distances, datelines).
func TestMeshGeometry(t *testing.T) {
	m := NewMesh(4, 2)
	if m.Degree() != 4 || m.Nodes() != 16 {
		t.Fatalf("mesh shape: degree %d, nodes %d", m.Degree(), m.Nodes())
	}
	// Edge behaviour: node (0,0) has no -d0/-d1 links, (3,3) no +d0/+d1.
	origin := m.FromCoords([]int{0, 0})
	corner := m.FromCoords([]int{3, 3})
	if m.HasLink(origin, 0, Minus) || m.HasLink(origin, 1, Minus) {
		t.Error("origin has outward minus links")
	}
	if m.HasLink(corner, 0, Plus) || m.HasLink(corner, 1, Plus) {
		t.Error("corner has outward plus links")
	}
	if nb := m.Neighbor(origin, 0, Minus); nb != -1 {
		t.Errorf("Neighbor off the edge = %d, want -1", nb)
	}
	if nb := m.Neighbor(origin, 0, Plus); nb != m.FromCoords([]int{1, 0}) {
		t.Errorf("interior Neighbor = %d", nb)
	}
	// Distances are Manhattan: corner to corner is 2(k-1), not 2 as on the
	// torus.
	if d := m.Distance(origin, corner); d != 6 {
		t.Errorf("mesh corner distance = %d, want 6", d)
	}
	if d := New(4, 2).Distance(origin, corner); d != 2 {
		t.Errorf("torus corner distance = %d, want 2 (wraparound)", d)
	}
	// No datelines, no double-minimal ties.
	for c := 0; c < 4; c++ {
		if m.WrapsAround(c, Plus) || m.WrapsAround(c, Minus) {
			t.Errorf("mesh WrapsAround(%d) true", c)
		}
	}
	if m.BothMinimal(origin, corner, 0) {
		t.Error("mesh BothMinimal true")
	}
	if m.RingOffset(3, 0) != -3 || m.RingOffset(0, 3) != 3 {
		t.Error("mesh RingOffset wraps")
	}
	// ChannelsOf skips unwired edge ports: a k-ary n-mesh has 2n(k-1)k^(n-1)
	// unidirectional channels, the torus the full 2nk^n.
	if got, want := len(ChannelsOf(m)), 2*2*3*4; got != want {
		t.Errorf("mesh channels = %d, want %d", got, want)
	}
	if got, want := len(ChannelsOf(New(4, 2))), 2*2*16; got != want {
		t.Errorf("torus channels = %d, want %d", got, want)
	}
}

// TestLatencyOverlay checks the latmap decorator: file parsing, per-link
// override, pass-through of unmapped links, and validation of nonexistent
// channels and degenerate latencies.
func TestLatencyOverlay(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "lat.csv")
	content := "# src,port,latency\n5,0,3\n5,1,4\n\n12,2,7\n"
	if err := os.WriteFile(file, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork("torus:k=8,n=2,latmap=" + file)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.LinkLatency(5, 0); got != 3 {
		t.Errorf("LinkLatency(5,0) = %d, want 3", got)
	}
	if got := net.LinkLatency(5, 1); got != 4 {
		t.Errorf("LinkLatency(5,1) = %d, want 4", got)
	}
	if got := net.LinkLatency(12, 2); got != 7 {
		t.Errorf("LinkLatency(12,2) = %d, want 7", got)
	}
	if got := net.LinkLatency(6, 0); got != 0 {
		t.Errorf("unmapped LinkLatency = %d, want 0 (engine default)", got)
	}
	// The overlay must keep the base geometry.
	if net.Kind() != "torus" || net.Nodes() != 64 {
		t.Errorf("overlay changed the base network: %s", net)
	}

	// Error paths: missing file, malformed line, nonexistent channel
	// (mesh edge), latency below 1.
	if _, err := NewNetwork("torus:k=8,n=2,latmap=" + filepath.Join(dir, "absent.csv")); err == nil {
		t.Error("missing latmap file accepted")
	}
	bad := filepath.Join(dir, "bad.csv")
	os.WriteFile(bad, []byte("1,2\n"), 0o644)
	if _, err := NewNetwork("torus:k=8,n=2,latmap=" + bad); err == nil {
		t.Error("malformed latmap line accepted")
	}
	edge := filepath.Join(dir, "edge.csv")
	os.WriteFile(edge, []byte("0,1,2\n"), 0o644) // port d0- off node 0: mesh edge
	if _, err := NewNetwork("mesh:k=8,n=2,latmap=" + edge); err == nil {
		t.Error("latmap on a nonexistent mesh-edge channel accepted")
	}
	if _, err := NewNetwork("torus:k=8,n=2,latmap=" + edge); err != nil {
		t.Errorf("the same channel exists on the torus: %v", err)
	}
	zero := filepath.Join(dir, "zero.csv")
	os.WriteFile(zero, []byte("0,0,0\n"), 0o644)
	if _, err := NewNetwork("torus:k=8,n=2,latmap=" + zero); err == nil {
		t.Error("zero latency accepted")
	}
}

// TestLatencyOverlayLimits: a latency the engine's int64 arrival arithmetic
// could wrap on, or a channel listed twice, is refused, and the error names
// the file and line.
func TestLatencyOverlayLimits(t *testing.T) {
	dir := t.TempDir()
	for i, tc := range []struct{ content, want string }{
		{"5,0,3\n5,0,9223372036854775807\n", "line 2: latency 9223372036854775807 out of range"},
		{"5,0,2147483648\n", "line 1: latency 2147483648 out of range"},
		{"# src,port,latency\n5,0,3\n5,1,4\n5,0,4\n", "line 4: channel"},
	} {
		file := filepath.Join(dir, fmt.Sprintf("lat%d.csv", i))
		if err := os.WriteFile(file, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := NewNetwork("torus:k=4,n=2,latmap=" + file)
		if err == nil || !strings.Contains(err.Error(), file+": "+tc.want) {
			t.Errorf("%q: got %v, want an error containing %q", tc.content, err, file+": "+tc.want)
		}
	}
	ov, err := ReadLatencyOverlay(New(4, 2), strings.NewReader("5,0,2147483647"))
	if err != nil || ov.LinkLatency(5, 0) != MaxLinkLatency {
		t.Errorf("MaxLinkLatency refused: %v", err)
	}
}

// FuzzLatencyMap hardens the latmap reader: any input is either an error
// or an overlay of existing channels, each listed once with a latency in
// [1, MaxLinkLatency].
func FuzzLatencyMap(f *testing.F) {
	for _, seed := range []string{
		"# src,port,latency\n5,0,3\n5,1,4\n\n12,2,7",
		"0,0,9223372036854775807", // wraps now+latency-1
		"0,0,2147483648",          // one past MaxLinkLatency
		"+1,0,3", "01,0,3", "1,0,1.0",
		"1,0,3\r\n2,1,3\r\n",
		`{"src":1,"port":0,"latency":3}`,
		"☃,0,3", "1,0,3\xff",
		"1,0", "1,0,3,4",
		"5,0,3\n5,0,4", // a channel twice
	} {
		f.Add(seed)
	}
	base := New(4, 2)
	f.Fuzz(func(t *testing.T, in string) {
		ov, err := ReadLatencyOverlay(base, strings.NewReader(in))
		if err != nil {
			return
		}
		records := 0
		if err := registry.ReadRecords(strings.NewReader(in), func([]string) error { records++; return nil }); err != nil {
			t.Fatalf("%q: the overlay accepted what the reader refuses: %v", in, err)
		}
		if records != len(ov.lat) {
			t.Fatalf("%q: %d records but %d channels: one was listed twice", in, records, len(ov.lat))
		}
		for ch, l := range ov.lat {
			if !base.Valid(ch.Src) || !base.HasLink(ch.Src, ch.Port.Dim(), ch.Port.Dir()) {
				t.Fatalf("%q: accepted nonexistent channel %v", in, ch)
			}
			if l < 1 || l > MaxLinkLatency {
				t.Fatalf("%q: channel %v latency %d outside [1,%d]", in, ch, l, MaxLinkLatency)
			}
		}
	})
}

// TestHypercubeIsBinaryTorus pins the alias semantics: a hypercube:n spec
// is the 2-ary n-torus, with both directions along a dimension reaching
// the same neighbour.
func TestHypercubeIsBinaryTorus(t *testing.T) {
	net, err := NewNetwork("hypercube:n=3")
	if err != nil {
		t.Fatal(err)
	}
	if net.Nodes() != 8 || net.Degree() != 6 {
		t.Fatalf("hypercube: nodes %d, degree %d", net.Nodes(), net.Degree())
	}
	for id := 0; id < net.Nodes(); id++ {
		for d := 0; d < net.N(); d++ {
			plus := net.Neighbor(NodeID(id), d, Plus)
			minus := net.Neighbor(NodeID(id), d, Minus)
			if plus != minus {
				t.Fatalf("node %d dim %d: +/- neighbours differ (%d vs %d)", id, d, plus, minus)
			}
			if net.Coords(plus)[d] == net.Coord(NodeID(id), d) {
				t.Fatalf("node %d dim %d: neighbour does not flip the bit", id, d)
			}
		}
	}
}
