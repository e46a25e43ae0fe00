package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// outDir receives trace files and scratch journals; it is inside bench/
// (the working directory) and ignored by git.
const outDir = "out"

// span is one coarse traced interval: a set-up part, the run, one sweep
// point, one HTTP request. Parent is the id of the span that caused it
// (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// tracer holds everything one traced run records, in memory, until
// writeFile at exit. Coarse spans are kept individually; per-call layers
// (Route, Plan, Poll, Advance, HTTP paths) keep a callStats each.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	layers map[string]*callStats

	routers []*timedRouter // one per engine worker; merged at report time
	source  *timedSource
	sched   *timedSchedule
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), layers: map[string]*callStats{}}
}

// begin opens a span and returns its id for end. A nil tracer records
// nothing, so code shared by traced and untraced runs calls it freely.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNs: int64(time.Since(t.epoch)), DurNs: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.DurNs = int64(time.Since(t.epoch)) - s.StartNs
	return time.Duration(s.DurNs)
}

// spanSeconds sums the durations of every closed span called name.
func (t *tracer) spanSeconds(name string) float64 {
	sum := 0.0
	for _, d := range t.spanDurations(name) {
		sum += d
	}
	return sum
}

// spanDurations returns the durations (seconds) of every closed span
// called name, in start order.
func (t *tracer) spanDurations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.DurNs >= 0 {
			out = append(out, float64(s.DurNs)/1e9)
		}
	}
	return out
}

// observe records one call of a mutex-guarded per-call layer (used where
// calls arrive from several goroutines: HTTP paths, sweep points).
func (t *tracer) observe(layer string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.layers[layer]
	if s == nil {
		s = &callStats{}
		t.layers[layer] = s
	}
	s.add(d)
}

// layer returns a copy of the named per-call layer (zero when absent).
func (t *tracer) layer(name string) callStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.layers[name]; s != nil {
		return *s
	}
	return callStats{}
}

// routerTotals merges the per-worker router decorators.
func (t *tracer) routerTotals() (route, plan, refresh callStats, absorbs uint64) {
	for _, r := range t.routers {
		route.merge(&r.route)
		plan.merge(&r.plan)
		refresh.merge(&r.refresh)
		absorbs += r.absorbs
	}
	return
}

// writeFile writes the trace of one workload to out/trace-<workload>.json.
func (t *tracer) writeFile(workload string, seed uint64, metrics map[string]float64) (string, error) {
	layers := map[string]callStats{}
	for name, s := range t.layers {
		layers[name] = *s
	}
	route, plan, refresh, _ := t.routerTotals()
	layers["routing.Route"], layers["routing.Plan"], layers["routing.RefreshFaults"] = route, plan, refresh
	if t.source != nil {
		layers["traffic.Poll"] = t.source.poll
	}
	if t.sched != nil {
		layers["fault.Advance"] = t.sched.advance
	}
	doc := struct {
		Workload string               `json:"workload"`
		Seed     uint64               `json:"seed"`
		Settings map[string]int       `json:"settings"`
		Metrics  map[string]float64   `json:"metrics"`
		Layers   map[string]callStats `json:"layers"`
		Spans    []span               `json:"spans"`
	}{workload, seed, map[string]int{
		"width": width(), "fleet_idle_poll_ms": fleetIdlePollMs,
		"fleet_client_poll_ms": fleetClientPollMs, "fleet_resubmits": fleetResubmits,
	}, metrics, layers, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}

// timedRouter decorates a routing.Router with per-call timing. It is used
// by one engine worker only (the engine gives every worker its own
// algorithm instance), so its counters need no lock. RefreshFaults and
// SetEscalation forward when the wrapped algorithm has the capability and
// are no-ops otherwise, which is exactly what the engine's type
// assertions would have concluded on the bare algorithm.
type timedRouter struct {
	routing.Router
	route, plan, refresh callStats
	absorbs              uint64
}

func (t *tracer) wrapRouter(r routing.Router) *timedRouter {
	w := &timedRouter{Router: r}
	t.mu.Lock()
	t.routers = append(t.routers, w)
	t.mu.Unlock()
	return w
}

func (r *timedRouter) Route(cur topology.NodeID, m *message.Message) routing.Decision {
	t0 := time.Now()
	d := r.Router.Route(cur, m)
	r.route.add(time.Since(t0))
	if d.Outcome == routing.AbsorbFault {
		r.absorbs++
	}
	return d
}

func (r *timedRouter) Plan(cur topology.NodeID, m *message.Message, blockedDim int, blockedDir topology.Dir) bool {
	t0 := time.Now()
	ok := r.Router.Plan(cur, m, blockedDim, blockedDir)
	r.plan.add(time.Since(t0))
	return ok
}

func (r *timedRouter) RefreshFaults() {
	if fr, ok := r.Router.(routing.FaultRefresher); ok {
		t0 := time.Now()
		fr.RefreshFaults()
		r.refresh.add(time.Since(t0))
	}
}

func (r *timedRouter) SetEscalation(n int) {
	if es, ok := r.Router.(routing.EscalationSetter); ok {
		es.SetEscalation(n)
	}
}

// timedSource decorates a traffic.Source; the engine polls it from one
// goroutine. MeanRate forwards for sources that report one.
type timedSource struct {
	traffic.Source
	poll      callStats
	generated uint64
}

func (s *timedSource) Poll(now int64) []*message.Message {
	t0 := time.Now()
	ms := s.Source.Poll(now)
	s.poll.add(time.Since(t0))
	s.generated += uint64(len(ms))
	return ms
}

func (s *timedSource) MeanRate() float64 {
	if mr, ok := s.Source.(traffic.MeanRater); ok {
		return mr.MeanRate()
	}
	return 0
}

// timedSchedule decorates a fault.Schedule; the engine advances it once
// per cycle from one goroutine. fired reports whether the latest Advance
// returned transitions, so the step loop can attribute that Step.
type timedSchedule struct {
	fault.Schedule
	advance     callStats
	transitions uint64
	fired       bool
}

func (s *timedSchedule) Advance(now int64, cur *fault.Set) []fault.Transition {
	t0 := time.Now()
	trs := s.Schedule.Advance(now, cur)
	s.advance.add(time.Since(t0))
	s.transitions += uint64(len(trs))
	s.fired = len(trs) > 0
	return trs
}

// timedTransport is the http.RoundTripper decorator on Client.HTTP: one
// span and one per-path layer record per request.
type timedTransport struct {
	inner  http.RoundTripper
	tr     *tracer
	parent int
}

func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := tt.tr.begin("http"+req.URL.Path, tt.parent)
	resp, err := tt.inner.RoundTrip(req)
	tt.tr.observe("http"+req.URL.Path, tt.tr.end(id))
	return resp, err
}

// timedHandler wraps Server.Handler(): server-side busy time per request.
func timedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.observe("coord.handler", time.Since(t0))
	})
}
