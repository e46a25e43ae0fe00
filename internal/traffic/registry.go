package traffic

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/topology"
)

// Source is the pluggable temporal side of the workload: an arrival process
// producing the messages generated at (or before) each polled cycle. The
// engine polls it once per cycle; implementations pre-schedule arrivals so
// Poll cost is proportional to the number of arrivals, not nodes.
type Source interface {
	// Name identifies the configured source in reports.
	Name() string
	// Poll returns the messages generated at cycle now (creation times
	// <= now not returned before). Implementations must return them in a
	// deterministic order for a fixed rng seed. The returned slice is only
	// valid until the next Poll call — implementations may reuse it.
	Poll(now int64) []*message.Message
}

// Env bundles everything a source factory may need: the bound network, the
// generating nodes, the configured default rate and message shape, the
// spatial destination pattern, and the rng stream the source owns.
type Env struct {
	T topology.Network
	F *fault.Set
	// Sources are the traffic-generating nodes (normally the healthy set).
	Sources []topology.NodeID
	// Lambda is the default per-node rate in messages/node/cycle; sources
	// with their own rate parameters treat it as the offered-load target.
	Lambda float64
	// MsgLen is the fixed message length in flits.
	MsgLen int
	// Mode is the routing discipline injected headers start in.
	Mode message.Mode
	// Pattern picks destinations for sources that generate (rather than
	// replay) traffic.
	Pattern Pattern
	// R is the rng stream owned by the source.
	R *rng.Stream
	// Pool, when non-nil, is the engine's message pool: generating sources
	// allocate through it so delivered messages recycle (see
	// network.Params.Pool — the two must be the same pool). Nil keeps
	// allocations on the heap; the engine then Adopt-registers each polled
	// message.
	Pool *message.Pool
}

// check validates the parts of the environment every generating source
// needs; replay-style sources validate their own inputs.
func (e Env) check() error {
	switch {
	case e.T == nil:
		return fmt.Errorf("traffic: source env needs a topology")
	case len(e.Sources) == 0:
		return fmt.Errorf("traffic: source env has no generating nodes")
	case e.MsgLen < 1:
		return fmt.Errorf("traffic: message length must be >= 1, got %d", e.MsgLen)
	case e.Pattern == nil:
		return fmt.Errorf("traffic: source env needs a destination pattern")
	case e.R == nil:
		return fmt.Errorf("traffic: source env needs an rng stream")
	}
	return nil
}

// MeanRater is implemented by sources that know their long-run aggregate
// arrival rate (messages/cycle summed over all generating nodes). The run
// layer uses it to derive its default cycle bound, so a source whose actual
// rate differs from the configured λ (nodemap, explicit rate= or period=
// parameters, replay) is not cut off spuriously.
type MeanRater interface {
	MeanRate() float64
}

// A factory is the one function a registration supplies. It reads the
// parsed spec's parameters — statically: no environment, no IO — and
// returns the builder binding them to a run. Static checks
// (CheckPatternSpec/CheckSourceSpec) call the factory and drop the builder;
// construction calls both, so validation and construction cannot drift.
type (
	PatternFactory func(spec registry.Spec) (PatternBuilder, error)
	SourceFactory  func(spec registry.Spec) (SourceBuilder, error)
	// PatternBuilder builds the configured pattern over a network.
	PatternBuilder func(t topology.Network, f *fault.Set) (Pattern, error)
	// SourceBuilder builds the configured source in an environment.
	SourceBuilder func(env Env) (Source, error)
)

// Info describes a registered pattern or source for listings and
// validation.
type Info struct {
	// Name is the primary registry key.
	Name string
	// Usage is the spec grammar, e.g. "burst:on=<cycles>,off=<cycles>".
	Usage string
	// Description is a one-line summary for -list style output.
	Description string
	// Aliases are additional keys resolving to the same factory.
	Aliases []string
	// NodeIDKeys lists parameter keys whose values are node ids (e.g.
	// hotspot's "node"), so callers that know the network size can
	// range-check them statically alongside the decimal per-node keys.
	NodeIDKeys []string
}

// entry pairs an Info with its factory; B is the builder type.
type entry[B any] struct {
	info    Info
	factory func(registry.Spec) (B, error)
}

var (
	patterns = registry.NewTable[entry[PatternBuilder]]("traffic", "pattern")
	sources  = registry.NewTable[entry[SourceBuilder]]("traffic", "source")
)

func register[B any](tb *registry.Table[entry[B]], info Info, factory func(registry.Spec) (B, error)) {
	if factory == nil {
		panic(fmt.Sprintf("traffic: registration of %q with nil factory", info.Name))
	}
	tb.Register(registry.Info{Name: info.Name, Usage: info.Usage, Description: info.Description, Aliases: info.Aliases},
		entry[B]{info: info, factory: factory})
}

// resolve parses a spec string, finds its entry and runs the factory's
// static parameter validation.
func resolve[B any](tb *registry.Table[entry[B]], specStr string) (build B, spec registry.Spec, info Info, err error) {
	e, spec, err := tb.Resolve(specStr)
	if err == nil {
		build, err = e.factory(spec)
	}
	return build, spec, e.info, err
}

// RegisterPattern adds a destination pattern to the registry under
// info.Name and every alias. Panics on duplicates or a nil factory —
// registration happens in init functions where a panic is a build-time bug.
func RegisterPattern(info Info, factory PatternFactory) { register(patterns, info, factory) }

// RegisterSource adds an arrival-process source to the registry under
// info.Name and every alias; see RegisterPattern.
func RegisterSource(info Info, factory SourceFactory) { register(sources, info, factory) }

// NewPattern builds the destination pattern described by a spec string
// ("uniform", "hotspot:frac=0.1,node=12", ...) over the given network.
func NewPattern(specStr string, t topology.Network, f *fault.Set) (Pattern, error) {
	build, _, _, err := resolve(patterns, specStr)
	if err != nil {
		return nil, err
	}
	return build(t, f)
}

// NewSource builds the arrival-process source described by a spec string
// ("poisson", "burst:on=50,off=200,rate=0.02", "replay:file=w.csv", ...).
func NewSource(specStr string, env Env) (Source, error) {
	build, _, _, err := resolve(sources, specStr)
	if err != nil {
		return nil, err
	}
	return build(env)
}

// CheckPatternSpec statically checks a pattern spec string — parseable,
// registered name, well-formed parameters — and returns the parsed Spec and
// the resolved registry Info so callers can continue without re-parsing.
// Environment-dependent checks (node healthiness) happen at construction.
func CheckPatternSpec(specStr string) (registry.Spec, Info, error) {
	_, spec, info, err := resolve(patterns, specStr)
	return spec, info, err
}

// CheckSourceSpec is CheckPatternSpec for a source spec string (replay file
// contents are read at construction).
func CheckSourceSpec(specStr string) (registry.Spec, Info, error) {
	_, spec, info, err := resolve(sources, specStr)
	return spec, info, err
}

// Patterns returns the listing of every registered pattern, sorted by name.
func Patterns() []registry.Info { return patterns.Infos() }

// Sources returns the listing of every registered source, sorted by name.
func Sources() []registry.Info { return sources.Infos() }
