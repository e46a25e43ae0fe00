package fault

// Dynamic fault schedules: time-varying fail/heal transitions over a run's
// fault Set, selected by internal/registry's "name:key=val,..." spec
// grammar like every other seam. Two schedules are built in:
//
//	trace:file=<events>     replay a CSV/JSONL event file
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
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/topology"
)

// Schedule produces the fault transitions of a dynamic run. Advance
// returns every transition due at or before cycle now, in application
// order; cur is the live fault state (already reflecting previously
// returned transitions), which generative schedules consult for victim
// selection. Advance must be called with non-decreasing now; the engine
// calls it once per cycle from exactly one goroutine.
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

// ParseScheduleTrace reads a fault-transition event file and validates it
// against the topology. Two line formats may be mixed freely:
//
//	CSV:    cycle,fail|heal,node,<id>
//	        cycle,fail|heal,link,<src>,<port>
//	JSONL:  {"cycle":N,"op":"fail","elem":"node","id":5}
//	        {"cycle":N,"op":"heal","elem":"link","src":3,"port":1}
//
// Blank lines and '#' comments are skipped. Cycles must be >= 0 and
// non-decreasing; node ids must be in range; link channels must exist on
// the topology. Violations are reported as errors with line numbers —
// never panics — so untrusted trace files fail closed.
func ParseScheduleTrace(r io.Reader, t topology.Network) ([]Transition, error) {
	var out []Transition
	sc := bufio.NewScanner(r)
	lastCycle := int64(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var tr Transition
		var err error
		if strings.HasPrefix(line, "{") {
			tr, err = parseTraceJSON(line, t)
		} else {
			tr, err = parseTraceCSV(line, t)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: schedule trace line %d: %w", lineNo, err)
		}
		if tr.Cycle < lastCycle {
			return nil, fmt.Errorf("fault: schedule trace line %d: cycle %d out of order (previous %d)", lineNo, tr.Cycle, lastCycle)
		}
		lastCycle = tr.Cycle
		out = append(out, tr)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fault: schedule trace: %w", err)
	}
	return out, nil
}

func parseTraceOp(op string) (fail bool, err error) {
	switch op {
	case "fail":
		return true, nil
	case "heal":
		return false, nil
	}
	return false, fmt.Errorf("bad op %q (want fail|heal)", op)
}

func traceNode(t topology.Network, id int64) (topology.NodeID, error) {
	if id < 0 || id >= int64(t.Nodes()) {
		return 0, fmt.Errorf("node id %d out of range [0,%d)", id, t.Nodes())
	}
	return topology.NodeID(id), nil
}

func traceLink(t topology.Network, src, port int64) (topology.ChannelID, error) {
	if src < 0 || src >= int64(t.Nodes()) {
		return topology.ChannelID{}, fmt.Errorf("link source %d out of range [0,%d)", src, t.Nodes())
	}
	if port < 0 || port >= int64(t.Degree()) {
		return topology.ChannelID{}, fmt.Errorf("link port %d out of range [0,%d)", port, t.Degree())
	}
	p := topology.Port(port)
	if !t.HasLink(topology.NodeID(src), p.Dim(), p.Dir()) {
		return topology.ChannelID{}, fmt.Errorf("link %v does not exist on %s",
			topology.ChannelID{Src: topology.NodeID(src), Port: p}, t)
	}
	return topology.ChannelID{Src: topology.NodeID(src), Port: p}, nil
}

func parseTraceCSV(line string, t topology.Network) (Transition, error) {
	fields := strings.Split(line, ",")
	for i := range fields {
		fields[i] = strings.TrimSpace(fields[i])
	}
	if len(fields) < 4 {
		return Transition{}, fmt.Errorf("torn record %q (want cycle,op,node,<id> or cycle,op,link,<src>,<port>)", line)
	}
	cycle, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil || cycle < 0 {
		return Transition{}, fmt.Errorf("bad cycle %q", fields[0])
	}
	fail, err := parseTraceOp(fields[1])
	if err != nil {
		return Transition{}, err
	}
	tr := Transition{Cycle: cycle, Fail: fail}
	switch fields[2] {
	case "node":
		if len(fields) != 4 {
			return Transition{}, fmt.Errorf("node record %q has %d fields (want 4)", line, len(fields))
		}
		id, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil {
			return Transition{}, fmt.Errorf("bad node id %q", fields[3])
		}
		tr.Node, err = traceNode(t, id)
		if err != nil {
			return Transition{}, err
		}
	case "link":
		if len(fields) != 5 {
			return Transition{}, fmt.Errorf("link record %q has %d fields (want 5)", line, len(fields))
		}
		src, err1 := strconv.ParseInt(fields[3], 10, 64)
		port, err2 := strconv.ParseInt(fields[4], 10, 64)
		if err1 != nil || err2 != nil {
			return Transition{}, fmt.Errorf("bad link endpoint in %q", line)
		}
		tr.IsLink = true
		tr.Link, err = traceLink(t, src, port)
		if err != nil {
			return Transition{}, err
		}
	default:
		return Transition{}, fmt.Errorf("bad element %q (want node|link)", fields[2])
	}
	return tr, nil
}

func parseTraceJSON(line string, t topology.Network) (Transition, error) {
	var rec struct {
		Cycle *int64 `json:"cycle"`
		Op    string `json:"op"`
		Elem  string `json:"elem"`
		ID    *int64 `json:"id"`
		Src   *int64 `json:"src"`
		Port  *int64 `json:"port"`
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return Transition{}, fmt.Errorf("bad JSON record: %v", err)
	}
	if rec.Cycle == nil || *rec.Cycle < 0 {
		return Transition{}, fmt.Errorf("missing or negative cycle")
	}
	fail, err := parseTraceOp(rec.Op)
	if err != nil {
		return Transition{}, err
	}
	tr := Transition{Cycle: *rec.Cycle, Fail: fail}
	switch rec.Elem {
	case "node":
		if rec.ID == nil {
			return Transition{}, fmt.Errorf("node record missing id")
		}
		tr.Node, err = traceNode(t, *rec.ID)
		if err != nil {
			return Transition{}, err
		}
	case "link":
		if rec.Src == nil || rec.Port == nil {
			return Transition{}, fmt.Errorf("link record missing src/port")
		}
		tr.IsLink = true
		tr.Link, err = traceLink(t, *rec.Src, *rec.Port)
		if err != nil {
			return Transition{}, err
		}
	default:
		return Transition{}, fmt.Errorf("bad element %q (want node|link)", rec.Elem)
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
// (almost everything down) skips the failure rather than looping.
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
			probe := cur.Clone()
			probe.MarkLink(src, port)
			if probe.Disconnects() {
				continue
			}
			return Transition{Cycle: at, Fail: true, IsLink: true, Link: ch}, true
		}
		id := topology.NodeID(s.r.Intn(s.t.Nodes()))
		if cur.NodeFaulty(id) {
			continue
		}
		probe := cur.Clone()
		probe.MarkNode(id)
		if probe.Disconnects() {
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
		Description: "replay fail/heal events from a CSV/JSONL file (cycle,fail|heal,node,<id> / ...,link,<src>,<port>)",
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
				return nil, fmt.Errorf("%s: %w", file, err)
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
