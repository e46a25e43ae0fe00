// Package core is the library façade: a declarative Config describing one
// simulation experiment (topology, routing, virtual channels, faults,
// workload, measurement protocol), a Run function executing it on the
// flit-level engine, and the parallel worker pool (RunSweepFunc) behind
// the multi-point parameter sweeps of every figure of the paper. Plan
// identity, checkpoint/resume and saturation search live a layer up, in
// the sweep subsystem (repro/internal/sweep), which drives the pool
// through RunSweepFunc; multi-process sweeps go through the coordinator
// fleet (repro/internal/coord).
package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// ShapeStamp places one fault-region silhouette into a plane of the torus.
type ShapeStamp struct {
	// Spec is the silhouette and size (see fault.ShapeSpec).
	Spec fault.ShapeSpec
	// DimA, DimB span the plane the shape is stamped into.
	DimA, DimB int
	// Base fixes the remaining coordinates (node id; its DimA/DimB
	// coordinates are ignored in favour of the spec anchors).
	Base topology.NodeID
}

// FaultSpec describes the fault configuration of a run.
type FaultSpec struct {
	// RandomNodes places this many uniform random node faults, rejecting
	// placements that disconnect the network (assumption (h)).
	RandomNodes int
	// Shapes stamps coalesced fault regions (Fig. 1 / Fig. 5 silhouettes).
	Shapes []ShapeStamp
	// Links fails individual bidirectional links (src node + outgoing port).
	Links []struct {
		Src  topology.NodeID
		Port topology.Port
	}
}

// Empty reports whether the spec describes a fault-free network.
func (fs FaultSpec) Empty() bool {
	return fs.RandomNodes == 0 && len(fs.Shapes) == 0 && len(fs.Links) == 0
}

// Config fully describes one simulation point. The zero value is not
// runnable; start from DefaultConfig.
type Config struct {
	// Topology is the network spec in the topology registry:
	// "torus:k=8,n=2" (the paper's networks, the default), "mesh:k=8,n=2",
	// "hypercube:n=10", optionally with a per-link latency overlay
	// (",latmap=<file>"); see topology.Topologies.
	Topology string
	// V is the number of virtual channels per physical channel (paper
	// sweeps 4, 6, 10).
	V int
	// BufDepth is the per-VC flit buffer depth.
	BufDepth int
	// MsgLen is the fixed message length in flits (paper: 32, 64).
	MsgLen int
	// Lambda is the per-node Poisson generation rate in
	// messages/node/cycle.
	Lambda float64
	// Algorithm names the routing algorithm in the routing registry
	// ("det", "adaptive", "valiant", ...; see routing.Names). Empty means
	// "det", the paper's deterministic (e-cube) base.
	Algorithm string
	// Pattern is the destination-pattern spec in the traffic registry:
	// "uniform" (paper), "transpose", "hotspot:frac=0.1,node=12",
	// "bitrev", "weights:5=3,rest=1", ... (see traffic.Patterns). Empty
	// means "uniform".
	Pattern string
	// Traffic is the arrival-process spec in the traffic source registry:
	// "poisson" (paper, the default), "interval:period=200",
	// "burst:on=50,off=200,rate=0.02", "nodemap:default=0.001,12=0.01",
	// "replay:file=w.csv", ... (see traffic.Sources). Rate-bearing sources
	// default their rate from Lambda so workloads compare at equal
	// offered load.
	Traffic string
	// CaptureWorkload, when non-nil, receives one (cycle,src,dst,len)
	// record per generated message; write it out with Workload.Write and
	// re-drive it with Traffic = "replay:file=...". Not part of the
	// serialisable experiment description.
	CaptureWorkload *trace.Workload `json:"-"`
	// Faults is the fault configuration.
	Faults FaultSpec
	// FaultSchedule makes the run dynamic: a schedule spec from the fault
	// registry ("trace:file=events.csv", "mtbf:mtbf=20000,mttr=2000")
	// applying fail/heal transitions mid-run on top of Faults. Empty means
	// static faults (the paper's model). Part of the experiment description
	// and of sweep identity; results stay bit-identical across Workers.
	FaultSchedule string
	// WarmupMessages are generated-but-unmeasured messages (paper: 10,000).
	WarmupMessages int
	// MeasureMessages is the measured delivery quota ending the run
	// (paper: 90,000 after warm-up; reduced defaults keep sweeps fast).
	MeasureMessages int
	// MaxCycles bounds the run; 0 derives a bound from the quota and rate.
	MaxCycles int64
	// Td is the router decision time; Delta the software re-injection
	// overhead (both 0 in the paper's experiments).
	Td, Delta int64
	// SaturationBacklog stops the run early (marked saturated) once source
	// queues hold this many messages; 0 derives 16×nodes.
	SaturationBacklog int
	// Escalation bounds the rerouting heuristics: after this many
	// absorptions a message is routed by the exact planner (0 = default).
	// Ablation knob.
	Escalation int
	// NoReinjectPriority disables the priority of absorbed messages over
	// new traffic. Ablation knob for the paper's starvation argument.
	NoReinjectPriority bool
	// LinkLatency is the flit time across a physical channel (default 1,
	// the paper's assumption (g)); CreditDelay the credit return time
	// (default 1). Ablation knobs for wire-dominated designs.
	LinkLatency, CreditDelay int64
	// Retired ablation knobs: each selected a predecessor of the engine's one
	// scheduler, link lookup, message arena or rng mode, and selects nothing
	// now — Validate rejects a config that sets one. The names (and their
	// place in the serialised config, hence in every sweep.PointID) remain
	// only because the frozen bench/ module copies them
	// (bench/engine.go:165,188-189); they go with the bench/ unfreeze.
	DenseScan, DenseVCScan, NoLinkCache, NoArena, GlobalRNG bool
	// Workers is the engine's stepping-domain count: >1 partitions the
	// routers into contiguous node-range domains stepped by a worker pool
	// under a compute/commit barrier. Results are bit-identical for any
	// value (the determinism contract), so like CaptureWorkload it is an
	// execution detail, not part of the experiment description — it stays
	// out of the serialised config and sweep identity. 0 means 1 (serial);
	// values above the node count are clamped by the engine.
	Workers int `json:"-"`
	// Seed makes the run reproducible.
	Seed uint64
}

// DefaultConfig returns the paper's baseline configuration for a k-ary
// n-cube at the given load: V=4, 32-flit messages, uniform traffic,
// measurement protocol scaled down (1k warm-up, 10k measured) for
// interactive use. Full-paper scale is a matter of raising
// WarmupMessages/MeasureMessages to 10k/90k.
func DefaultConfig(k, n int, lambda float64) Config {
	return Config{
		Topology:        fmt.Sprintf("torus:k=%d,n=%d", k, n),
		V:               4,
		BufDepth:        2,
		MsgLen:          32,
		Lambda:          lambda,
		Pattern:         "uniform",
		WarmupMessages:  1000,
		MeasureMessages: 10000,
		Seed:            1,
	}
}

// BuildTopology constructs the network this config describes through the
// topology registry.
func (c Config) BuildTopology() (topology.Network, error) {
	net, err := topology.NewNetwork(c.Topology)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return net, nil
}

// PatternSpec resolves the destination-pattern spec for this config; empty
// means the paper's "uniform".
func (c Config) PatternSpec() string {
	if c.Pattern == "" {
		return "uniform"
	}
	return c.Pattern
}

// TrafficSpec resolves the arrival-process spec for this config; empty
// means the paper's "poisson".
func (c Config) TrafficSpec() string {
	if c.Traffic == "" {
		return "poisson"
	}
	return c.Traffic
}

// AlgorithmName resolves the routing-algorithm registry key for this
// config; empty means the paper's "det".
func (c Config) AlgorithmName() string {
	if c.Algorithm == "" {
		return "det"
	}
	return c.Algorithm
}

// CheckWidths refuses a V or BufDepth beyond the router's byte-wide lane
// fields (router.MaxV, router.MaxDepth; the paper uses V <= 10, depth 2)
// and a MsgLen outside the [1, message.MaxLen] a flit can number.
func (c Config) CheckWidths() error {
	switch {
	case c.V > router.MaxV || c.BufDepth > router.MaxDepth:
		return fmt.Errorf("core: V must be <= %d and BufDepth <= %d, got %d and %d", router.MaxV, router.MaxDepth, c.V, c.BufDepth)
	case c.MsgLen < 1 || c.MsgLen > message.MaxLen:
		return fmt.Errorf("core: MsgLen must be in [1,%d], got %d", message.MaxLen, c.MsgLen)
	}
	return nil
}

// Validate checks the configuration for consistency: registered algorithm,
// buildable topology, cycle counts the engine can add without wrapping,
// well-formed workload specs with in-range node ids, and a fault
// specification that fits the selected network (plane dimensions, base
// nodes, link existence, silhouette extents — a mesh rejects shapes that
// would wrap).
func (c Config) Validate() error {
	_, err := c.validate()
	return err
}

// validate is Validate returning the network it built, so NewEngine builds
// its topology once.
func (c Config) validate() (topology.Network, error) {
	name := c.AlgorithmName()
	info, ok := routing.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown routing algorithm %q (registered: %v)", name, routing.Names())
	}
	net, err := c.BuildTopology()
	if err != nil {
		return nil, err
	}
	return net, c.check(info, net)
}

// check is Validate's work once the algorithm is found and the network
// built.
func (c Config) check(info routing.Info, net topology.Network) error {
	name := c.AlgorithmName()
	minV := info.MinVFor(net)
	switch {
	case c.V < minV:
		return fmt.Errorf("core: algorithm %q needs V >= %d on %s, got %d", name, minV, net, c.V)
	case c.BufDepth < 1:
		return fmt.Errorf("core: BufDepth must be >= 1, got %d", c.BufDepth)
	case c.CheckWidths() != nil:
		return c.CheckWidths()
	case !(c.Lambda > 0) || math.IsInf(c.Lambda, 0): // negated to reject NaN
		return fmt.Errorf("core: Lambda must be positive and finite, got %g", c.Lambda)
	case c.MeasureMessages < 1:
		return fmt.Errorf("core: MeasureMessages must be >= 1, got %d", c.MeasureMessages)
	case c.WarmupMessages < 0:
		return fmt.Errorf("core: WarmupMessages must be >= 0, got %d", c.WarmupMessages)
	case c.Td < 0 || c.Delta < 0:
		return fmt.Errorf("core: Td and Delta must be >= 0")
	case max(c.Td, c.Delta, c.LinkLatency, c.CreditDelay) > topology.MaxLinkLatency:
		// The engine adds each to the current cycle; the cap keeps that sum
		// from wrapping, as it does for a latmap's latencies.
		return fmt.Errorf("core: Td, Delta, LinkLatency and CreditDelay must be <= %d, got %d, %d, %d, %d",
			topology.MaxLinkLatency, c.Td, c.Delta, c.LinkLatency, c.CreditDelay)
	case c.Workers < 0:
		return fmt.Errorf("core: Workers must be >= 0, got %d", c.Workers)
	}
	for _, knob := range []struct {
		name string
		set  bool
	}{
		{"DenseScan", c.DenseScan}, {"DenseVCScan", c.DenseVCScan}, {"NoLinkCache", c.NoLinkCache},
		{"NoArena", c.NoArena}, {"GlobalRNG", c.GlobalRNG},
	} {
		if knob.set {
			return fmt.Errorf("core: %s is retired and selects nothing; leave it unset", knob.name)
		}
	}
	if err := c.validateWorkload(net); err != nil {
		return err
	}
	if c.FaultSchedule != "" {
		// Static checks only (registered name, well-formed parameters); a
		// trace file's contents are validated when the engine is built.
		if _, err := fault.CheckScheduleSpec(c.FaultSchedule); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return c.validateFaults(net)
}

// validateFaults checks the fault specification against the selected
// topology: total fault count below the network size, every explicit link
// existing, and every shape stamp fitting its plane. Shape checks dry-run
// the real StampShape into a scratch set so validation and construction
// cannot drift, and count the nodes it stamps: it refuses an oversized
// silhouette within k² cells, where CellCount would enumerate all of it.
func (c Config) validateFaults(net topology.Network) error {
	faulty := c.Faults.RandomNodes
	scratch := fault.NewSet(net)
	for _, s := range c.Faults.Shapes {
		nodes, err := fault.StampShape(scratch, s.Base, s.DimA, s.DimB, s.Spec)
		if err != nil {
			return fmt.Errorf("core: bad shape: %w", err)
		}
		faulty += len(nodes)
	}
	for _, l := range c.Faults.Links {
		if err := checkFaultLink(net, l.Src, l.Port); err != nil {
			return err
		}
	}
	if faulty >= net.Nodes() {
		return fmt.Errorf("core: %d faults in a %d-node network", faulty, net.Nodes())
	}
	return nil
}

// validateWorkload checks the pattern and source specs: parseable,
// registered names, well-formed parameters (via the traffic registry's
// static checks), and — because only the config knows the network — that
// every referenced node id (hotspot's node=, the per-node entries of
// nodemap/weights) is inside the selected network.
func (c Config) validateWorkload(net topology.Network) error {
	total := net.Nodes()
	pspec, pinfo, err := traffic.CheckPatternSpec(c.PatternSpec())
	if err != nil {
		return fmt.Errorf("core: bad traffic pattern: %w", err)
	}
	if err := checkSpecNodeIDs(pspec, pinfo, total); err != nil {
		return fmt.Errorf("core: bad traffic pattern: %w", err)
	}
	tspec, tinfo, err := traffic.CheckSourceSpec(c.TrafficSpec())
	if err != nil {
		return fmt.Errorf("core: bad traffic source: %w", err)
	}
	if err := checkSpecNodeIDs(tspec, tinfo, total); err != nil {
		return fmt.Errorf("core: bad traffic source: %w", err)
	}
	return nil
}

// checkSpecNodeIDs range-checks every node id a workload spec references —
// the decimal-keyed per-node parameters plus the parameters the registry
// declares as node-valued (Info.NodeIDKeys) — against the network size.
func checkSpecNodeIDs(spec registry.Spec, info traffic.Info, total int) error {
	for _, p := range spec.Params {
		id := p.Key
		if !registry.IsNodeKey(id) {
			if !slices.Contains(info.NodeIDKeys, p.Key) {
				continue
			}
			id = p.Value
		}
		if _, err := registry.IntField("node id", id, 0, int64(total)-1); err != nil {
			return err
		}
	}
	return nil
}

// checkFaultLink verifies that an explicit fault link names an existing
// channel of the network; Validate and BuildFaults share it so the
// validation and construction checks cannot drift.
func checkFaultLink(net topology.Network, src topology.NodeID, port topology.Port) error {
	if !net.Valid(src) {
		return fmt.Errorf("core: fault link source %d out of range [0,%d)", src, net.Nodes())
	}
	if port < 0 || int(port) >= net.Degree() || !net.HasLink(src, port.Dim(), port.Dir()) {
		return fmt.Errorf("core: fault link %v does not exist on %s",
			topology.ChannelID{Src: src, Port: port}, net)
	}
	return nil
}

// maxCycles derives the run bound when Config.MaxCycles is zero: twenty
// times the ideal time for the source to generate the quota, floored
// generously. Sources that report their long-run aggregate rate
// (traffic.MeanRater — nodemap, explicit rate=/period= parameters, replay)
// override the λ-derived default, so a workload lighter than λ is not cut
// off and flagged saturated spuriously.
func (c Config) maxCycles(src traffic.Source, nodes int) int64 {
	if c.MaxCycles > 0 {
		return c.MaxCycles
	}
	rate := c.Lambda * float64(nodes)
	if mr, ok := src.(traffic.MeanRater); ok && mr.MeanRate() > 0 {
		rate = mr.MeanRate()
	}
	quota := float64(c.WarmupMessages + c.MeasureMessages)
	bound := int64(20 * quota / rate)
	if bound < 500_000 {
		bound = 500_000
	}
	return bound
}

// saturationBacklog derives the early-stop backlog threshold.
func (c Config) saturationBacklog(nodes int) int {
	if c.SaturationBacklog > 0 {
		return c.SaturationBacklog
	}
	return 16 * nodes
}

// MinDomainNodes is the smallest per-domain router count AutoWorkers
// considers worth a worker: below it the two barriers a cycle and the
// mailbox bookkeeping outweigh the parallel phase work. On 2 vCPUs two
// domains first beat one at about 8 000 routers under light load and 4 000
// under mid load (ARCHITECTURE.md's crossover table), so two domains start
// at 2 × 4 096.
const MinDomainNodes = 4096

// AutoWorkers picks an engine worker count for a network of the given
// size: one domain per MinDomainNodes routers, capped at GOMAXPROCS,
// floored at 1 (serial). Used by callers with an "auto" workers setting
// (swsim -engine-workers); explicit Config.Workers values bypass it.
func AutoWorkers(nodes int) int {
	w := nodes / MinDomainNodes
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}
