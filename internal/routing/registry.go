package routing

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/registry"
	"repro/internal/topology"
)

// Router is the pluggable routing-algorithm interface. Everything the
// engine, the walker, and the sweep façade need from an algorithm goes
// through it, so new algorithms plug in by registration alone:
//
//   - Route is the per-hop router-hardware decision for a head flit;
//   - Plan is the messaging-layer rewrite after a fault absorption;
//   - Name/V identify the configured instance in reports;
//   - BaseMode is the message-header routing discipline injected worms
//     start in (it parameterises the traffic generator);
//   - Topology/Faults expose the bound network for analysis tools.
//
// Algorithms are built against any registered topology.Network.
//
// Implementations must be stateless with respect to messages (all
// per-message state lives in the header) so a single-threaded engine and
// the exhaustive walkers can share one instance.
type Router interface {
	Route(cur topology.NodeID, m *message.Message) Decision
	Plan(cur topology.NodeID, m *message.Message, blockedDim int, blockedDir topology.Dir) bool
	Name() string
	V() int
	BaseMode() message.Mode
	Topology() topology.Network
	Faults() *fault.Set
}

// EscalationSetter is an optional capability: algorithms built on the
// Software-Based planner expose the heuristic-phase bound as an ablation
// knob (see Planner.escalateAfter).
type EscalationSetter interface {
	SetEscalation(n int)
}

// FaultRefresher is an optional capability: algorithms that precompute
// state from the fault set (region index, healthy-node lists) rebuild it
// here after a dynamic fault transition mutates the set. The engine calls
// it at the serial transition point, once per algorithm instance, on every
// state-changing transition.
type FaultRefresher interface {
	RefreshFaults()
}

// Factory builds a configured Router bound to one topology, fault set and
// virtual-channel count. Factories validate v themselves (and anything
// else they need) so New surfaces per-algorithm errors directly.
type Factory func(t topology.Network, f *fault.Set, v int) (Router, error)

// Info describes a registered algorithm for listings and validation.
type Info struct {
	// Name is the primary registry key.
	Name string
	// MinV is the smallest legal virtual-channel count (on wrapping
	// topologies, where the dateline VC classes apply).
	MinV int
	// MinVNoWrap is the smallest legal count on non-wrapping topologies
	// (mesh), where dropping the dateline classes usually frees one VC;
	// 0 means the same as MinV.
	MinVNoWrap int
	// Description is a one-line summary for -list style output.
	Description string
	// Aliases are additional keys resolving to the same factory.
	Aliases []string
}

// MinVFor returns the smallest legal virtual-channel count on the given
// network: MinVNoWrap on non-wrapping topologies when declared, MinV
// otherwise.
func (i Info) MinVFor(t topology.Network) int {
	if !t.Wraps() && i.MinVNoWrap > 0 {
		return i.MinVNoWrap
	}
	return i.MinV
}

type algorithm struct {
	info    Info
	factory Factory
}

var algorithms = registry.NewTable[algorithm]("routing", "algorithm")

// Register adds an algorithm to the registry under info.Name and every
// alias. It panics on a duplicate key or a nil factory — registration
// happens in package init functions where a panic is a build-time bug.
func Register(info Info, factory Factory) {
	if factory == nil {
		panic(fmt.Sprintf("routing: Register(%q) with nil factory", info.Name))
	}
	algorithms.Register(registry.Info{Name: info.Name, Description: info.Description, Aliases: info.Aliases},
		algorithm{info: info, factory: factory})
}

// New builds the registered algorithm called name (primary or alias) over
// the given topology, fault set and virtual-channel count. Unknown names
// report the available set.
func New(name string, t topology.Network, f *fault.Set, v int) (Router, error) {
	a, ok := algorithms.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("routing: unknown algorithm %q (registered: %v)", name, Names())
	}
	return a.factory(t, f, v)
}

// Lookup returns the Info for a registered name (primary or alias).
func Lookup(name string) (Info, bool) {
	a, ok := algorithms.Lookup(name)
	return a.info, ok
}

// Names returns the primary registered algorithm names, sorted.
func Names() []string { return algorithms.Names() }

// Algorithms returns the Info of every registered algorithm, sorted by
// primary name.
func Algorithms() []Info {
	names := Names()
	out := make([]Info, len(names))
	for i, name := range names {
		out[i], _ = Lookup(name)
	}
	return out
}

func init() {
	Register(Info{
		Name:        "det",
		MinV:        2,
		MinVNoWrap:  1,
		Description: "SW-Based-nD over dimension-order (e-cube) deterministic routing",
		Aliases:     []string{"deterministic", "sw-based-deterministic"},
	}, func(t topology.Network, f *fault.Set, v int) (Router, error) {
		return NewDeterministic(t, f, v)
	})
	Register(Info{
		Name:        "adaptive",
		MinV:        3,
		MinVNoWrap:  2,
		Description: "SW-Based-nD over Duato-protocol fully adaptive routing",
		Aliases:     []string{"duato", "sw-based-adaptive"},
	}, func(t topology.Network, f *fault.Set, v int) (Router, error) {
		return NewAdaptive(t, f, v)
	})
	Register(Info{
		Name:        "valiant",
		MinV:        2,
		MinVNoWrap:  1,
		Description: "Valiant two-phase load balancing over deterministic SW-Based routing",
	}, func(t topology.Network, f *fault.Set, v int) (Router, error) {
		return NewValiant(t, f, v, false)
	})
	Register(Info{
		Name:        "valiant-adaptive",
		MinV:        3,
		MinVNoWrap:  2,
		Description: "Valiant two-phase load balancing over adaptive SW-Based routing",
	}, func(t topology.Network, f *fault.Set, v int) (Router, error) {
		return NewValiant(t, f, v, true)
	})
}
