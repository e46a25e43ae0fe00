package traffic

import (
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/message"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/trace"
)

// schedSource is the shared chassis of the generating sources: a per-node
// event heap of pre-scheduled arrivals, so Poll cost is proportional to
// arrivals rather than nodes. next produces the node's following arrival
// time (clamped to at least one cycle after the arrival just emitted);
// per-node process state lives in the concrete source and is indexed by
// the node's position in sources.
type schedSource struct {
	name     string
	t        topology.Network
	sources  []topology.NodeID
	msgLen   int
	mode     message.Mode
	pattern  Pattern
	r        *rng.Stream
	pool     *message.Pool
	heap     arrivalHeap
	next     func(idx int, at int64) int64
	meanRate float64
	nextID   uint64
	created  uint64
	// out is Poll's reused result buffer.
	//simlint:ignore reflife -- pre-adoption scratch: messages are heap-built here and pooled only when Network.Enqueue adopts them; reset at the top of every Poll
	out []*message.Message
}

// newSched builds the chassis after validating the env.
func newSched(name string, env Env) (*schedSource, error) {
	if err := env.check(); err != nil {
		return nil, err
	}
	return &schedSource{
		name:    name,
		t:       env.T,
		sources: env.Sources,
		msgLen:  env.MsgLen,
		mode:    env.Mode,
		pattern: env.Pattern,
		r:       env.R,
		pool:    env.Pool,
	}, nil
}

// initHeap schedules the first arrival of every node. first returns the
// node's initial arrival cycle (clamped to >= 1).
func (s *schedSource) initHeap(first func(idx int) int64) {
	s.heap = make(arrivalHeap, 0, len(s.sources))
	for i, src := range s.sources {
		at := first(i)
		if at < 1 {
			at = 1
		}
		s.heap = append(s.heap, arrival{at: at, node: int32(src), idx: int32(i)})
	}
	s.heap.init()
}

// Name implements Source.
func (s *schedSource) Name() string { return s.name }

// Created returns the total number of messages generated so far.
func (s *schedSource) Created() uint64 { return s.created }

// MeanRate implements MeanRater: the long-run aggregate arrival rate in
// messages/cycle, set by each concrete source's constructor.
func (s *schedSource) MeanRate() float64 { return s.meanRate }

// Poll implements Source, with the pluggable next-arrival sampler.
// Messages come from the configured pool (heap when nil); the returned
// slice is reused across calls.
func (s *schedSource) Poll(now int64) []*message.Message {
	s.out = s.out[:0]
	for {
		top, ok := s.heap.Peek()
		if !ok || top.at > now {
			return s.out
		}
		s.heap.pop()
		src := topology.NodeID(top.node)
		dst := s.pattern.Pick(src, s.r)
		m := message.NewIn(s.pool, s.nextID, src, dst, s.msgLen, s.t.N(), s.mode, now)
		s.nextID++
		s.created++
		s.out = append(s.out, m)
		at := s.next(int(top.idx), top.at)
		if at <= top.at {
			at = top.at + 1
		}
		s.heap.push(arrival{at: at, node: top.node, idx: top.idx})
	}
}

// NewPoisson builds the Poisson source on the shared chassis: every node is
// an independent Poisson process of rate messages/node/cycle. It draws the
// rng in exactly the seed Generator's order (destination, then gap;
// stationary exponential first arrival), so the default workload stays
// bit-identical to the pre-registry path — guarded by
// TestPoissonMatchesReferenceGenerator.
func NewPoisson(env Env, rate float64) (*schedSource, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("traffic: poisson rate must be > 0, got %g", rate)
	}
	s, err := newSched("poisson", env)
	if err != nil {
		return nil, err
	}
	s.meanRate = rate * float64(len(s.sources))
	mean := 1 / rate
	s.next = func(idx int, at int64) int64 { return at + int64(s.r.Exp(mean)) }
	s.initHeap(func(idx int) int64 { return int64(s.r.Exp(mean)) + 1 })
	return s, nil
}

// NewInterval builds the deterministic-interval source: every node emits
// exactly one message every period cycles, phases randomised uniformly so
// nodes do not inject in lockstep. The per-node mean rate is 1/period; it
// is the zero-variance counterpart to Poisson at equal offered load.
func NewInterval(env Env, period int64) (*schedSource, error) {
	if period < 1 {
		return nil, fmt.Errorf("traffic: interval period must be >= 1, got %d", period)
	}
	s, err := newSched(fmt.Sprintf("interval(%d)", period), env)
	if err != nil {
		return nil, err
	}
	s.meanRate = float64(len(s.sources)) / float64(period)
	s.next = func(idx int, at int64) int64 { return at + period }
	s.initHeap(func(idx int) int64 { return 1 + int64(s.r.Intn(int(period))) })
	return s, nil
}

// onOff is the on/off modulated Poisson source behind two registry
// entries: each node alternates independently between an ON phase emitting
// Poisson arrivals at rate and a silent OFF phase, with phase durations of
// mean on / off cycles drawn by phase. With exponential phases it is the
// two-state Markov-modulated Poisson process ("burst"); with Pareto
// phases the heavy-tailed self-similar construction ("pareto", see
// pareto.go). The long-run per-node rate is rate·on/(on+off); the
// registry factories derive rate from λ when the spec omits it, so on/off
// and Poisson runs compare at equal offered load.
type onOff struct {
	*schedSource
	on, off, rate float64
	phase         func(r *rng.Stream, mean float64) float64
	nodes         []onOffNode
}

// onOffNode is one node's phase-process state in continuous time: the
// current phase, the cycle it ends at, and the node's own process clock t
// (the time of its last arrival or phase change).
type onOffNode struct {
	on       bool
	t        float64
	phaseEnd float64
}

// newOnOff builds an on/off source reporting itself as name. on and off
// are mean phase durations in cycles; rate is the Poisson rate while ON;
// phase draws one phase duration with the given mean. Each node starts ON
// with the stationary probability on/(on+off) at the beginning of a fresh
// phase: exactly stationary for memoryless (exponential) phases,
// approximately so otherwise — a bias that decays over the warm-up.
func newOnOff(name string, env Env, on, off, rate float64, phase func(r *rng.Stream, mean float64) float64) (*onOff, error) {
	if on <= 0 || off <= 0 {
		return nil, fmt.Errorf("traffic: on/off durations must be > 0, got on=%g off=%g", on, off)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("traffic: on-state rate must be > 0, got %g", rate)
	}
	s, err := newSched(name, env)
	if err != nil {
		return nil, err
	}
	s.meanRate = rate * on / (on + off) * float64(len(s.sources))
	m := &onOff{schedSource: s, on: on, off: off, rate: rate, phase: phase}
	m.nodes = make([]onOffNode, len(s.sources))
	for i := range m.nodes {
		st := &m.nodes[i]
		st.on = s.r.Float64() < on/(on+off)
		if st.on {
			st.phaseEnd = phase(s.r, on)
		} else {
			st.phaseEnd = phase(s.r, off)
		}
	}
	s.next = m.nextArrival
	s.initHeap(func(idx int) int64 { return m.nextArrival(idx, 0) })
	return m, nil
}

// nextArrival advances node idx's phase process to its next arrival. An
// ON-phase inter-arrival draw that overshoots the phase boundary is
// discarded and redrawn in the next ON phase — unbiased, because the
// exponential arrival process (whatever the phase law) is memoryless.
func (m *onOff) nextArrival(idx int, _ int64) int64 {
	st := &m.nodes[idx]
	for {
		if !st.on {
			st.t = st.phaseEnd
			st.on = true
			st.phaseEnd = st.t + m.phase(m.r, m.on)
			continue
		}
		gap := m.r.Exp(1 / m.rate)
		if st.t+gap <= st.phaseEnd {
			st.t += gap
			return int64(st.t)
		}
		st.t = st.phaseEnd
		st.on = false
		st.phaseEnd = st.t + m.phase(m.r, m.off)
	}
}

// NewNodeMap builds the heterogeneous-λ source: every node is an
// independent Poisson source with its own rate. rates maps node id -> λ;
// def is the rate of unlisted nodes, and a rate of 0 silences a node.
func NewNodeMap(env Env, rates map[int]float64, def float64) (*schedSource, error) {
	if def < 0 {
		return nil, fmt.Errorf("traffic: nodemap default rate must be >= 0, got %g", def)
	}
	if env.T == nil {
		return nil, fmt.Errorf("traffic: source env needs a topology")
	}
	total := env.T.Nodes()
	generating := make(map[topology.NodeID]bool, len(env.Sources))
	for _, id := range env.Sources {
		generating[id] = true
	}
	ids := make([]int, 0, len(rates))
	for id := range rates {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if rates[id] < 0 {
			return nil, fmt.Errorf("traffic: nodemap node %d: rate must be >= 0, got %g", id, rates[id])
		}
		if id < 0 || id >= total {
			return nil, fmt.Errorf("traffic: nodemap node %d out of range [0,%d)", id, total)
		}
		if rates[id] > 0 && !generating[topology.NodeID(id)] {
			return nil, fmt.Errorf("traffic: nodemap node %d is not a generating (healthy) node", id)
		}
	}
	// Restrict the chassis to the nodes with a positive rate.
	sub := env
	sub.Sources = nil
	var subRates []float64
	for _, id := range env.Sources {
		rate := def
		if r, ok := rates[int(id)]; ok {
			rate = r
		}
		if rate > 0 {
			sub.Sources = append(sub.Sources, id)
			subRates = append(subRates, rate)
		}
	}
	if len(sub.Sources) == 0 {
		return nil, fmt.Errorf("traffic: nodemap leaves no node with a positive rate")
	}
	s, err := newSched("nodemap", sub)
	if err != nil {
		return nil, err
	}
	for _, rate := range subRates {
		s.meanRate += rate
	}
	s.next = func(idx int, at int64) int64 { return at + int64(s.r.Exp(1/subRates[idx])) }
	s.initHeap(func(idx int) int64 { return 1 + int64(s.r.Exp(1/subRates[idx])) })
	return s, nil
}

// --- registry wiring ---

// onOffRate resolves the on-state rate of an on/off source: the explicit
// rate= when given, else the one that makes the long-run offered load λ.
func onOffRate(name string, rate, on, off, lambda float64) (float64, error) {
	if rate != 0 {
		return rate, nil
	}
	if lambda <= 0 {
		return 0, fmt.Errorf("traffic: %s needs rate=<λ> or a positive λ", name)
	}
	return lambda * (on + off) / on, nil
}

func init() {
	RegisterSource(Info{
		Name:        "poisson",
		Usage:       "poisson[:rate=<msgs/node/cycle>]",
		Description: "independent Poisson arrivals per node (the paper's workload); rate defaults to λ",
	}, func(spec registry.Spec) (SourceBuilder, error) {
		a := sources.Args(spec)
		rate := a.PositiveFloat("rate", 0)
		return func(env Env) (Source, error) {
			if rate == 0 {
				return NewPoisson(env, env.Lambda)
			}
			return NewPoisson(env, rate)
		}, a.Finish()
	})

	RegisterSource(Info{
		Name:        "interval",
		Usage:       "interval[:period=<cycles>]",
		Description: "deterministic arrivals, one message per node every period cycles (default round(1/λ))",
		Aliases:     []string{"deterministic-interval"},
	}, func(spec registry.Spec) (SourceBuilder, error) {
		a := sources.Args(spec)
		explicit := int64(a.PositiveInt("period", 0))
		return func(env Env) (Source, error) {
			period := explicit
			if period == 0 {
				if env.Lambda <= 0 {
					return nil, fmt.Errorf("traffic: interval needs period=<cycles> or a positive λ")
				}
				period = int64(math.Round(1 / env.Lambda))
				if period < 1 {
					period = 1
				}
			}
			return NewInterval(env, period)
		}, a.Finish()
	})

	RegisterSource(Info{
		Name:        "burst",
		Usage:       "burst[:on=<cycles>,off=<cycles>,rate=<msgs/node/cycle>]",
		Description: "MMPP on/off bursty arrivals; rate defaults to λ·(on+off)/on (equal offered load)",
		Aliases:     []string{"mmpp", "bursty"},
	}, func(spec registry.Spec) (SourceBuilder, error) {
		a := sources.Args(spec)
		on, off := a.PositiveFloat("on", 50), a.PositiveFloat("off", 200)
		explicit := a.PositiveFloat("rate", 0)
		return func(env Env) (Source, error) {
			rate, err := onOffRate("burst", explicit, on, off, env.Lambda)
			if err != nil {
				return nil, err
			}
			return newOnOff(fmt.Sprintf("burst(on=%g,off=%g,rate=%g)", on, off, rate), env, on, off, rate, (*rng.Stream).Exp)
		}, a.Finish()
	})

	RegisterSource(Info{
		Name:        "nodemap",
		Usage:       "nodemap:default=<λ>,<node>=<λ>,...",
		Description: "heterogeneous load: per-node Poisson rates keyed by node id (0 silences a node)",
		Aliases:     []string{"hetero"},
	}, func(spec registry.Spec) (SourceBuilder, error) {
		a := sources.Args(spec)
		rates, def := a.NodeFloats(), a.Float("default", 0)
		if def < 0 {
			a.Failf("default rate must be >= 0, got %g", def)
		}
		return func(env Env) (Source, error) { return NewNodeMap(env, rates, def) }, a.Finish()
	})

	RegisterSource(Info{
		Name:        "replay",
		Usage:       "replay:file=<workload.csv>",
		Description: "re-drive captured (cycle,src,dst,len) records (see swsim -workload-out)",
	}, func(spec registry.Spec) (SourceBuilder, error) {
		a := sources.Args(spec)
		file := a.Str("file", "")
		if file == "" {
			a.Failf("replay needs file=<path>")
		}
		return func(env Env) (Source, error) {
			f, err := os.Open(file)
			if err != nil {
				return nil, fmt.Errorf("traffic: replay: %w", err)
			}
			defer f.Close()
			w, err := trace.ParseWorkload(f)
			if err != nil {
				return nil, fmt.Errorf("traffic: replay %s: %w", file, err)
			}
			return NewReplay(env.T, env.F, w, env.Mode)
		}, a.Finish()
	})
}
