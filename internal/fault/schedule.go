package fault

// Dynamic fault schedules: time-varying fail/heal transitions over a run's
// fault Set, selected by internal/registry's "name:key=val,..." spec
// grammar like every other seam. Two schedules are built in:
//
//	trace:file=<events>     replay a CSV event file
//	mtbf:mtbf=<c>,mttr=<c>  generative MTBF/MTTR renewal process
//
// The engine calls Advance exactly once per cycle, serially, before any
// per-router computation (see internal/network's transition point), so a
// schedule's draws happen in the same order at every worker count — the
// bit-identity contract extends to dynamic runs. The paper itself models
// only static faults (MTTR >> simulation horizon); schedules relax exactly
// that assumption and are measured by the chaos metrics in
// internal/metrics.

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/topology"
)

// Schedule produces the fault transitions of a dynamic run. Advance
// returns every transition due at or before cycle now, in application
// order; cur is the live fault state (already reflecting previously
// returned transitions), which generative schedules consult for victim
// selection — they may probe it in place, leaving it as they found it, so
// no other goroutine may read it during the call. Advance must be called
// with non-decreasing now; the engine calls it once per cycle from exactly
// one goroutine, at its serial transition point.
type Schedule interface {
	Advance(now int64, cur *Set) []Transition
	Name() string
}

// ScheduleEnv is everything a schedule factory may bind: the topology, the
// run's base (static) fault set, and the dedicated schedule rng stream
// (rng.ScheduleLabel; nil for schedules that never draw).
type ScheduleEnv struct {
	T    topology.Network
	Base *Set
	R    *rng.Stream
}

// ScheduleFactory is the one function a registration supplies. It reads
// the parsed spec's parameters — statically: no environment, no file IO —
// and returns the builder binding them to a run. CheckScheduleSpec calls
// the factory and drops the builder; NewSchedule calls both, so validation
// and construction cannot drift.
type ScheduleFactory func(spec registry.Spec) (ScheduleBuilder, error)

// ScheduleBuilder builds the configured schedule in an environment.
type ScheduleBuilder func(env ScheduleEnv) (Schedule, error)

var schedules = registry.NewTable[ScheduleFactory]("fault", "schedule")

// RegisterSchedule adds a schedule to the registry under info.Name and
// every alias. It panics on duplicates or nil factories — registration
// happens in init functions where a panic is a build-time bug.
func RegisterSchedule(info registry.Info, factory ScheduleFactory) {
	if factory == nil {
		panic(fmt.Sprintf("fault: RegisterSchedule(%q) with nil factory", info.Name))
	}
	schedules.Register(info, factory)
}

// NewSchedule builds the registered schedule the spec names.
func NewSchedule(specStr string, env ScheduleEnv) (Schedule, error) {
	factory, spec, err := schedules.Resolve(specStr)
	if err != nil {
		return nil, err
	}
	build, err := factory(spec)
	if err != nil {
		return nil, err
	}
	return build(env)
}

// CheckScheduleSpec statically validates a schedule spec: parseable, a
// registered name, well-formed parameters. It performs no IO (a trace
// file's contents are validated at construction).
func CheckScheduleSpec(specStr string) (registry.Spec, error) {
	factory, spec, err := schedules.Resolve(specStr)
	if err == nil {
		_, err = factory(spec)
	}
	return spec, err
}

// Schedules returns the Info of every registered schedule, sorted by
// primary name.
func Schedules() []registry.Info { return schedules.Infos() }

// traceSchedule replays a pre-validated, cycle-sorted transition list.
type traceSchedule struct {
	evs []Transition
	pos int
}

func (s *traceSchedule) Name() string { return "trace" }

func (s *traceSchedule) Advance(now int64, _ *Set) []Transition {
	start := s.pos
	for s.pos < len(s.evs) && s.evs[s.pos].Cycle <= now {
		s.pos++
	}
	if s.pos == start {
		return nil
	}
	return s.evs[start:s.pos]
}

// NewTraceSchedule wraps an explicit transition list (already sorted by
// cycle, as ParseScheduleTrace guarantees) as a Schedule. Exposed for
// tests and tools that build transition lists programmatically.
func NewTraceSchedule(evs []Transition) Schedule {
	return &traceSchedule{evs: evs}
}

// ParseScheduleTrace reads a fault-transition event file, one CSV record
// per line through registry.ReadRecords (blank and '#' lines skipped):
//
//	cycle,fail|heal,node,<id>
//	cycle,fail|heal,link,<src>,<port>
//
// and validates it against the topology. Cycles must be >= 0 and
// non-decreasing; node ids must be in range; link channels must exist on
// the topology. Violations are reported as errors naming the line — never
// panics — so untrusted trace files fail closed.
func ParseScheduleTrace(r io.Reader, t topology.Network) ([]Transition, error) {
	var out []Transition
	err := registry.ReadRecords(r, func(f []string) error {
		tr, err := parseTraceRecord(f, t)
		if err != nil {
			return err
		}
		if n := len(out); n > 0 && tr.Cycle < out[n-1].Cycle {
			return fmt.Errorf("cycle %d out of order (previous %d)", tr.Cycle, out[n-1].Cycle)
		}
		out = append(out, tr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func parseTraceRecord(f []string, t topology.Network) (Transition, error) {
	if len(f) != 4 && len(f) != 5 {
		return Transition{}, fmt.Errorf("torn record of %d fields (want cycle,op,node,<id> or cycle,op,link,<src>,<port>)", len(f))
	}
	cycle, err := registry.IntField("cycle", f[0], 0, math.MaxInt64)
	if err != nil {
		return Transition{}, err
	}
	tr := Transition{Cycle: cycle, Fail: f[1] == "fail"}
	if !tr.Fail && f[1] != "heal" {
		return Transition{}, fmt.Errorf("bad op %q (want fail|heal)", f[1])
	}
	switch {
	case f[2] == "node" && len(f) == 4:
		id, err := registry.IntField("node id", f[3], 0, int64(t.Nodes())-1)
		if err != nil {
			return Transition{}, err
		}
		tr.Node = topology.NodeID(id)
	case f[2] == "link" && len(f) == 5:
		tr.IsLink = true
		if tr.Link, err = topology.ParseChannel(t, f[3], f[4]); err != nil {
			return Transition{}, err
		}
	default:
		return Transition{}, fmt.Errorf("bad element %q in a %d-field record (want node,<id> or link,<src>,<port>)", f[2], len(f))
	}
	return tr, nil
}

// Victim-element selection modes of the mtbf schedule.
const (
	elemsLinks = "links"
	elemsNodes = "nodes"
	elemsMixed = "mixed"
)

// mtbfSchedule is a generative renewal process: failures arrive with
// exponential inter-arrival times of mean mtbf cycles; each failed element
// heals after an exponential repair time of mean mttr cycles. Victims are
// drawn uniformly from the currently healthy elements, rejecting picks
// that would disconnect the healthy sub-network (the dynamic analogue of
// paper assumption (h)); a failure with no admissible victim is skipped.
// All draws happen inside Advance — the engine's serial transition point —
// from the dedicated schedule stream, so the process is deterministic for
// a seed at any worker count.
type mtbfSchedule struct {
	t        topology.Network
	r        *rng.Stream
	mtbf     float64
	mttr     float64
	elems    string
	nextFail int64
	heals    []Transition // pending repairs, ascending cycle
	out      []Transition
}

func (s *mtbfSchedule) Name() string { return "mtbf" }

func (s *mtbfSchedule) gap(mean float64) int64 {
	g := int64(math.Ceil(s.r.Exp(mean)))
	if g < 1 {
		g = 1
	}
	return g
}

func (s *mtbfSchedule) Advance(now int64, cur *Set) []Transition {
	s.out = s.out[:0]
	for {
		healDue := len(s.heals) > 0 && s.heals[0].Cycle <= now
		failDue := s.nextFail <= now
		switch {
		// Repairs before failures at the same cycle: healing first can only
		// widen the victim pool the same-batch failure draws from.
		case healDue && (!failDue || s.heals[0].Cycle <= s.nextFail):
			s.out = append(s.out, s.heals[0])
			s.heals = s.heals[1:]
		case failDue:
			at := s.nextFail
			if tr, ok := s.pickVictim(at, cur); ok {
				s.out = append(s.out, tr)
				s.scheduleHeal(tr)
			}
			s.nextFail = at + s.gap(s.mtbf)
		default:
			return s.out
		}
	}
}

// pickVictim draws a healthy element whose failure keeps the healthy
// sub-network connected. Bounded rejection sampling: a pathological state
// (almost everything down) skips the failure rather than looping. Each
// candidate is probed on the live set itself — marked, searched, healed —
// which Advance's place at the serial transition point allows: the
// candidate was unmarked, so the heal restores the set exactly, the order
// of its failed-node list included.
func (s *mtbfSchedule) pickVictim(at int64, cur *Set) (Transition, bool) {
	for attempt := 0; attempt < 64; attempt++ {
		link := s.elems == elemsLinks || (s.elems == elemsMixed && s.r.Bool())
		if link {
			src := topology.NodeID(s.r.Intn(s.t.Nodes()))
			port := topology.Port(s.r.Intn(s.t.Degree()))
			if cur.NodeFaulty(src) || !s.t.HasLink(src, port.Dim(), port.Dir()) {
				continue
			}
			ch := topology.ChannelID{Src: src, Port: port}
			if cur.LinkMarked(ch) || cur.NodeFaulty(ch.Dst(s.t)) {
				continue
			}
			cur.MarkLink(src, port)
			cut := cur.Disconnects()
			cur.healLink(src, port)
			if cut {
				continue
			}
			return Transition{Cycle: at, Fail: true, IsLink: true, Link: ch}, true
		}
		id := topology.NodeID(s.r.Intn(s.t.Nodes()))
		if cur.NodeFaulty(id) {
			continue
		}
		cur.MarkNode(id)
		cut := cur.Disconnects()
		cur.healNode(id)
		if cut {
			continue
		}
		return Transition{Cycle: at, Fail: true, Node: id}, true
	}
	return Transition{}, false
}

// scheduleHeal inserts the repair of a just-failed element into the
// pending-heal list at its due position (stable on ties).
func (s *mtbfSchedule) scheduleHeal(failed Transition) {
	heal := failed
	heal.Fail = false
	heal.Cycle = failed.Cycle + s.gap(s.mttr)
	i := sort.Search(len(s.heals), func(i int) bool { return s.heals[i].Cycle > heal.Cycle })
	s.heals = append(s.heals, Transition{})
	copy(s.heals[i+1:], s.heals[i:])
	s.heals[i] = heal
	return
}

func init() {
	RegisterSchedule(registry.Info{
		Name:        "trace",
		Usage:       "trace:file=<events>",
		Description: "replay fail/heal events from a CSV file (cycle,fail|heal,node,<id> / ...,link,<src>,<port>)",
	}, func(spec registry.Spec) (ScheduleBuilder, error) {
		a := schedules.Args(spec)
		file := a.Str("file", "")
		if file == "" {
			a.Failf("missing file parameter")
		}
		return func(env ScheduleEnv) (Schedule, error) {
			f, err := os.Open(file)
			if err != nil {
				return nil, fmt.Errorf("fault: schedule trace: %w", err)
			}
			defer f.Close()
			evs, err := ParseScheduleTrace(f, env.T)
			if err != nil {
				return nil, fmt.Errorf("fault: schedule trace %s: %w", file, err)
			}
			return NewTraceSchedule(evs), nil
		}, a.Finish()
	})
	RegisterSchedule(registry.Info{
		Name:        "mtbf",
		Usage:       "mtbf:mtbf=<cycles>,mttr=<cycles>[,elems=links|nodes|mixed]",
		Description: "generative renewal process: exponential failures (mean mtbf) healing after exponential repairs (mean mttr), connectivity-preserving",
	}, func(spec registry.Spec) (ScheduleBuilder, error) {
		a := schedules.Args(spec)
		mtbf, mttr := a.Float("mtbf", 0), a.Float("mttr", 0)
		elems := a.Str("elems", elemsLinks)
		if mtbf <= 0 {
			a.Failf("mtbf must be a positive cycle count")
		}
		if mttr <= 0 {
			a.Failf("mttr must be a positive cycle count")
		}
		switch elems {
		case elemsLinks, elemsNodes, elemsMixed:
		default:
			a.Failf("elems must be links|nodes|mixed, got %q", elems)
		}
		return func(env ScheduleEnv) (Schedule, error) {
			if env.R == nil {
				return nil, fmt.Errorf("fault: mtbf schedule needs an rng stream (ScheduleEnv.R)")
			}
			s := &mtbfSchedule{t: env.T, r: env.R, mtbf: mtbf, mttr: mttr, elems: elems}
			s.nextFail = s.gap(mtbf)
			return s, nil
		}, a.Finish()
	})
}
