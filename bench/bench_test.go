package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// tinyChaos is a small faulted and scheduled point: static node faults,
// an mtbf schedule that fires several times, and enough load that Route,
// Plan, Poll, Advance and RefreshFaults all run.
func tinyChaos(workers int) core.Config {
	c := baseConfig("torus:k=6,n=2", "det", 4, 0.004, 7)
	c.Faults.RandomNodes = 2
	c.FaultSchedule = "mtbf:mtbf=300,mttr=600"
	c.WarmupMessages = 50
	c.MeasureMessages = 1 << 30
	c.MaxCycles = 3000
	c.Workers = workers
	return c
}

// The traced mirror of core.NewEngine and its decorators must be
// transparent: same simulated statistics as core's own engine, serial and
// on two engine workers.
func TestTracedEngineMatchesCoreEngine(t *testing.T) {
	for _, workers := range []int{1, 2} {
		c := tinyChaos(workers)
		plain := runEngine(c)
		if plain.err != nil {
			t.Fatal(plain.err)
		}
		tr := newTracer()
		traced, et := runTracedEngine(c, tr)
		if traced.err != nil {
			t.Fatal(traced.err)
		}
		want, err := digestResults(plain.results)
		if err != nil {
			t.Fatal(err)
		}
		got, err := digestResults(traced.results)
		if err != nil {
			t.Fatal(err)
		}
		if diff := got.difference(want); diff != "" {
			t.Errorf("workers=%d: traced run differs from core.NewEngine: %s", workers, diff)
		}
		route, plan, refresh, absorbs := tr.routerTotals()
		if route.Calls == 0 || plan.Calls == 0 || refresh.Calls == 0 || absorbs == 0 {
			t.Errorf("workers=%d: decorators idle: route=%d plan=%d refresh=%d absorbs=%d",
				workers, route.Calls, plan.Calls, refresh.Calls, absorbs)
		}
		if tr.source.poll.Calls != uint64(c.MaxCycles) || tr.sched.advance.Calls != uint64(c.MaxCycles) {
			t.Errorf("workers=%d: %d Poll and %d Advance calls over %d cycles",
				workers, tr.source.poll.Calls, tr.sched.advance.Calls, c.MaxCycles)
		}
		if tr.sched.transitions == 0 || uint64(len(et.transitionUs)) > tr.sched.transitions {
			t.Errorf("workers=%d: %d transitions on %d cycles", workers, tr.sched.transitions, len(et.transitionUs))
		}
		if len(tr.routers) != et.workers || len(et.stepUs) != int(c.MaxCycles) {
			t.Errorf("workers=%d: %d router decorators, %d engine workers, %d steps", workers, len(tr.routers), et.workers, len(et.stepUs))
		}
	}
}

// The traced sweep mirrors sweep.Run: same results in plan order, one span
// per point, one journal record per point.
func TestTracedSweepMatchesSweepRun(t *testing.T) {
	w := workload{name: "tiny-sweep", plan: func(seed uint64) sweep.Plan {
		p := fleetPlan(seed)
		p.Points = p.Points[:8]
		return p
	}}
	dir := t.TempDir()
	plain := runSweep(w, 3, dir)
	tr := newTracer()
	traced := runTracedSweep(w, 3, dir, tr)
	if plain.err != nil || traced.err != nil {
		t.Fatal(plain.err, traced.err)
	}
	if !reflect.DeepEqual(plain.results, traced.results) {
		t.Error("traced sweep results differ from sweep.Run")
	}
	if n := len(tr.spanDurations("sweep.point")); n != 8 {
		t.Errorf("%d point spans, want 8", n)
	}
	records, err := sweep.ReadJournal(dir + "/tiny-sweep.jsonl")
	if err != nil || len(records) != 8 {
		t.Errorf("journal holds %d records (%v), want 8", len(records), err)
	}
}

// A small fleet run end to end: workers without ExitOnDrain, cancelled
// after RunPlan, exactly one accepted result per point across the cached
// resubmits, and the same results as the local pool.
func TestFleetMatchesLocalPool(t *testing.T) {
	plan := func(seed uint64) sweep.Plan {
		p := fleetPlan(seed)
		p.Points = p.Points[:24]
		return p
	}
	dir := t.TempDir()
	tr := newTracer()
	fleet, fs := runFleet(workload{name: "tiny-fleet", plan: plan, fleet: true}, 5, dir, tr)
	if fleet.err != nil {
		t.Fatal(fleet.err)
	}
	local := runSweep(workload{name: "tiny-local", plan: plan}, 5, dir)
	if local.err != nil {
		t.Fatal(local.err)
	}
	if !reflect.DeepEqual(fleet.results, local.results) {
		t.Error("fleet results differ from the local pool's")
	}
	if fs.status.ResultsAccepted != 24 || fs.status.Expired != 0 {
		t.Errorf("status %+v, want 24 accepted and none expired", fs.status)
	}
	if lease, result := tr.layer("http/v1/lease"), tr.layer("http/v1/result"); lease.Calls < 24 || result.Calls != 24 {
		t.Errorf("%d lease and %d result round trips, want >= 24 and 24", lease.Calls, result.Calls)
	}
	if tr.layer("coord.handler").Calls == 0 {
		t.Error("handler decorator saw no request")
	}
}

func TestDigestDifferenceNamesField(t *testing.T) {
	a := []metrics.Results{{Delivered: 10, MeanLatency: 50}, {Delivered: 20}}
	b := []metrics.Results{{Delivered: 10, MeanLatency: 50}, {Delivered: 21}}
	da, err := digestResults(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := digestResults(b)
	if err != nil {
		t.Fatal(err)
	}
	if diff := da.difference(da); diff != "" {
		t.Errorf("self difference %q", diff)
	}
	if diff := da.difference(db); !strings.Contains(diff, "point 1: Results.Delivered = 20 vs 21") {
		t.Errorf("difference %q does not name the field", diff)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("q1=%v median=%v q3=%v, want 2.75 5.5 8.25", q1, median(xs), q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("q1=%v q3=%v, want 1 4.5", q1, q3)
	}
	if got := relSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread = %v, want 1", got)
	}
}

// A reported tail percentile always has at least ten samples beyond it.
func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, tail float64
	}{{1000, 99, 99}, {5000, 99, 99}, {200, 99, 95}, {600, 95, 95}, {100, 95, 90}, {20, 99, 50}, {10, 99, 50}} {
		if got := tailPercentile(c.n, c.want); math.Abs(got-c.tail) > 1e-9 {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.tail)
		}
	}
	for n := 20; n <= 2000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p := tailPercentile(n, 99)
		if beyond := n - int(percentile(xs, p)); beyond < 10 {
			t.Fatalf("n=%d: p%.2f leaves only %d samples beyond", n, p, beyond)
		}
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
}

func TestCallStatsQuantile(t *testing.T) {
	var s callStats
	for i := 0; i < 100; i++ {
		s.add(100) // bucket [64, 128)
	}
	s.add(5000)
	if q := s.quantileNs(0.5); q < 64 || q >= 128 {
		t.Errorf("median %v outside the [64,128) bucket", q)
	}
	if s.Calls != 101 || s.BusyNs != 100*100+5000 {
		t.Errorf("calls=%d busy=%d", s.Calls, s.BusyNs)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is malformed", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
		if (w.config == nil) == (w.plan == nil) {
			t.Errorf("workload %s: exactly one of config and plan must be set", w.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// BENCHMARK.json repeats the driver's registry; neither may drift.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads differ:\n%s\nvs registry\n%s", strings.Join(names, "\n"), strings.Join(want, "\n"))
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the registry:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the registry (%d vs %d metrics)", len(doc.PerLayer), len(perLayer))
	}
}

// golden.json holds a digest for every workload.
func TestGoldenCoversEveryWorkload(t *testing.T) {
	g, err := readGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		d, ok := g[w.name]
		if !ok || len(d.Digest) != 64 || len(d.Points) != len(w.points(1)) {
			t.Errorf("golden.json: %s: %s", w.name, fmt.Sprint(ok, len(d.Digest), len(d.Points)))
		}
	}
}
