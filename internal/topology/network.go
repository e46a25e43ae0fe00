package topology

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/registry"
)

// Network is the pluggable topology interface: everything the routing
// algorithms, the flit-level engine, the fault model and the workload
// generators need from an interconnection network goes through it, so new
// topologies plug in by registration alone, exactly like routing algorithms
// and traffic patterns.
//
// The model is a regular direct network laid out on an n-dimensional grid:
// every node carries an n-digit radix-k address, and the only hops are ±1
// moves along one dimension. Implementations differ in which of those hops
// carry links (torus: all, with wraparound; mesh: interior only) and in the
// per-dimension distance geometry that follows. Port numbering, flit
// buffering and virtual-channel structure are shared across topologies (see
// Port).
//
// All methods must be safe for concurrent use; networks are immutable after
// construction.
type Network interface {
	// Kind is the primary registry name of the topology family ("torus",
	// "mesh"); aliases (hypercube) report their underlying family.
	Kind() string
	// K is the radix (nodes per dimension) and N the number of dimensions.
	K() int
	N() int
	// Nodes is the total node count.
	Nodes() int
	// Degree is the number of network ports per router (2 per dimension;
	// edge routers of non-wrapping topologies simply leave ports unwired).
	Degree() int
	// Wraps reports whether the topology has wraparound links. Routing uses
	// it to decide whether dateline virtual-channel classes are required
	// and whether direction-reversal detours can succeed.
	Wraps() bool
	// Coord returns the address digit of id along dim; Coords the full
	// address; FromCoords its inverse (digits reduced mod k so callers may
	// pass unnormalised coordinates).
	Coord(id NodeID, dim int) int
	Coords(id NodeID) []int
	FromCoords(c []int) NodeID
	// Valid reports whether id is a legal node identifier.
	Valid(id NodeID) bool
	// HasLink reports whether a physical channel leaves id along dim in
	// direction dir. Tori always have one; meshes lack them at the edges.
	HasLink(id NodeID, dim int, dir Dir) bool
	// Neighbor returns the node one hop from id along dim towards dir, or
	// -1 when no such link exists (query HasLink first on possibly-edge
	// moves; indexing by a -1 node id is a programming error).
	Neighbor(id NodeID, dim int, dir Dir) NodeID
	// RingOffset returns the signed minimal hop offset from coordinate a to
	// b along one dimension (wraparound-aware on tori, plain difference on
	// meshes); RingDist its absolute value.
	RingOffset(a, b int) int
	RingDist(a, b int) int
	// Distance returns the minimal hop count between two nodes.
	Distance(a, b NodeID) int
	// BothMinimal reports whether both directions along dim are minimal
	// from src to dst (possible only on tori with even k at offset k/2).
	BothMinimal(src, dst NodeID, dim int) bool
	// WrapsAround reports whether one hop from coordinate c towards dir
	// crosses the wraparound (dateline) edge. Always false on meshes.
	WrapsAround(c int, dir Dir) bool
	// LinkLatency returns the flit time across the channel leaving src
	// through port, or 0 to defer to the engine's configured default. Base
	// topologies return 0 everywhere; the latmap overlay overrides
	// individual links (non-uniform wires).
	LinkLatency(src NodeID, port Port) int64
	// String renders a human-readable summary; FormatNode one address.
	String() string
	FormatNode(id NodeID) string
}

// Factory builds a configured Network from its parsed spec (the reserved
// latmap parameter is stripped before the factory runs). Factories validate
// their own parameters so NewNetwork surfaces per-topology errors directly.
type Factory func(spec registry.Spec) (Network, error)

var topologies = registry.NewTable[Factory]("topology", "topology")

// Register adds a topology to the registry under info.Name and every alias.
// It panics on a duplicate key or nil factory — registration happens in
// package init functions where a panic is a build-time bug.
func Register(info registry.Info, factory Factory) {
	if factory == nil {
		panic(fmt.Sprintf("topology: Register(%q) with nil factory", info.Name))
	}
	topologies.Register(info, factory)
}

// NewNetwork builds the network described by a spec string ("torus:k=8,n=2",
// "mesh:k=8,n=2", "hypercube:n=10"). The reserved latmap=<file> parameter
// applies a per-link latency overlay to any topology (ReadLatencyOverlay;
// errors name the file and line) and is consumed here, before the factory
// sees the spec.
func NewNetwork(specStr string) (Network, error) {
	factory, spec, err := topologies.Resolve(specStr)
	if err != nil {
		return nil, err
	}
	latmap := ""
	kept := spec.Params[:0]
	for _, p := range spec.Params {
		if p.Key == "latmap" {
			latmap = p.Value
			continue
		}
		kept = append(kept, p)
	}
	spec.Params = kept
	net, err := factory(spec)
	if err != nil {
		return nil, err
	}
	if latmap == "" {
		return net, nil
	}
	f, err := os.Open(latmap)
	if err != nil {
		return nil, fmt.Errorf("topology: latmap: %w", err)
	}
	defer f.Close()
	ov, err := ReadLatencyOverlay(net, f)
	if err != nil {
		return nil, fmt.Errorf("topology: latmap %s: %w", latmap, err)
	}
	return ov, nil
}

// Topologies returns the Info of every registered topology, sorted by
// primary name.
func Topologies() []registry.Info { return topologies.Infos() }

// maxNodes bounds constructible networks so a typo'd spec cannot allocate
// the machine away (engines allocate per-node state eagerly).
const maxNodes = 1 << 24

// checkDims validates the shared (k, n) parameters of grid topologies.
func checkDims(k, n int) error {
	if k < 2 {
		return fmt.Errorf("topology: radix k must be >= 2, got %d", k)
	}
	if n < 1 {
		return fmt.Errorf("topology: dimension n must be >= 1, got %d", n)
	}
	nodes := 1
	for i := 0; i < n; i++ {
		if nodes > maxNodes/k {
			return fmt.Errorf("topology: %d-ary %d-grid exceeds the %d-node limit", k, n, maxNodes)
		}
		nodes *= k
	}
	return nil
}

// gridDims extracts the (k, n) parameters of a grid topology spec.
func gridDims(spec registry.Spec) (k, n int, err error) {
	a := topologies.Args(spec)
	k = a.Int("k", 8)
	n = a.Int("n", 2)
	if err := a.Finish(); err != nil {
		return 0, 0, err
	}
	return k, n, checkDims(k, n)
}

func init() {
	Register(registry.Info{
		Name:        "torus",
		Usage:       "torus[:k=<radix>,n=<dims>]",
		Description: "k-ary n-cube with wraparound links (the paper's networks); defaults k=8,n=2",
		Aliases:     []string{"k-ary-n-cube"},
	}, func(spec registry.Spec) (Network, error) {
		k, n, err := gridDims(spec)
		if err != nil {
			return nil, err
		}
		return New(k, n), nil
	})

	Register(registry.Info{
		Name:        "mesh",
		Usage:       "mesh[:k=<radix>,n=<dims>]",
		Description: "k-ary n-mesh: no wraparound links, so no dateline VC classes; defaults k=8,n=2",
	}, func(spec registry.Spec) (Network, error) {
		k, n, err := gridDims(spec)
		if err != nil {
			return nil, err
		}
		return NewMesh(k, n), nil
	})

	Register(registry.Info{
		Name:        "hypercube",
		Usage:       "hypercube[:n=<dims>]",
		Description: "binary n-cube (2-ary n-torus alias); defaults n=10",
		Aliases:     []string{"binary-n-cube"},
	}, func(spec registry.Spec) (Network, error) {
		a := topologies.Args(spec)
		n := a.Int("n", 10)
		if err := a.Finish(); err != nil {
			return nil, err
		}
		if err := checkDims(2, n); err != nil {
			return nil, err
		}
		return New(2, n), nil
	})
}

// LatencyOverlay decorates a base network with a per-link latency map
// (non-uniform wires: long backplane hops, optical links, chiplet
// boundaries). Links absent from the map keep latency 0, i.e. the engine's
// configured default.
type LatencyOverlay struct {
	Network
	lat map[ChannelID]int64
}

// MaxLinkLatency is the slowest wire a latmap may name. The engine schedules
// an arrival at now+latency-1 in int64 cycles; capping latencies at 2^31-1
// leaves every reachable cycle count 2^63-2^31 of headroom, so that sum
// cannot wrap and turn a slow wire into an instant one.
const MaxLinkLatency = math.MaxInt32

// ReadLatencyOverlay reads latmap records ("src,port,latency", through
// registry.ReadRecords) and wraps base with them. Each record sets the
// latency of the unidirectional channel leaving node src through port; the
// channel must exist on base (ParseChannel) and be listed once, and the
// latency must lie in [1, MaxLinkLatency].
func ReadLatencyOverlay(base Network, r io.Reader) (*LatencyOverlay, error) {
	lat := make(map[ChannelID]int64)
	err := registry.ReadRecords(r, func(f []string) error {
		if len(f) != 3 {
			return fmt.Errorf("want src,port,latency, got %d fields", len(f))
		}
		ch, err1 := ParseChannel(base, f[0], f[1])
		l, err2 := registry.IntField("latency", f[2], 1, MaxLinkLatency)
		if err := cmp.Or(err1, err2); err != nil {
			return err
		}
		if _, dup := lat[ch]; dup {
			return fmt.Errorf("channel %v listed twice", ch)
		}
		lat[ch] = l
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &LatencyOverlay{Network: base, lat: lat}, nil
}

// ParseChannel reads a record's src and port fields as the channel leaving
// node src through port, which must exist on t.
func ParseChannel(t Network, src, port string) (ChannelID, error) {
	s, err1 := registry.IntField("src", src, 0, int64(t.Nodes())-1)
	p, err2 := registry.IntField("port", port, 0, int64(t.Degree())-1)
	if err := cmp.Or(err1, err2); err != nil {
		return ChannelID{}, err
	}
	ch := ChannelID{Src: NodeID(s), Port: Port(p)}
	if !t.HasLink(ch.Src, ch.Port.Dim(), ch.Port.Dir()) {
		return ChannelID{}, fmt.Errorf("channel %v does not exist on %s", ch, t)
	}
	return ch, nil
}

// LinkLatency returns the mapped latency, or 0 (engine default) for
// unmapped links.
func (o *LatencyOverlay) LinkLatency(src NodeID, port Port) int64 {
	return o.lat[ChannelID{Src: src, Port: port}]
}

// String summarises the base network plus the overlay size.
func (o *LatencyOverlay) String() string {
	return fmt.Sprintf("%s with %d-link latency overlay", o.Network.String(), len(o.lat))
}

// Compile-time conformance checks: every shipped topology satisfies Network.
var (
	_ Network = (*Torus)(nil)
	_ Network = (*Mesh)(nil)
	_ Network = (*LatencyOverlay)(nil)
)
