package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// recorder is the request-recording RoundTripper of the wire-contract
// tests: what a Client really put on the wire, path and body, and the
// reply it got.
type recorder struct {
	mu   sync.Mutex
	reqs []recorded
}

type recorded struct {
	path        string
	body, reply []byte
}

func (rec *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(reply))
	rec.mu.Lock()
	rec.reqs = append(rec.reqs, recorded{req.URL.Path, body, reply})
	rec.mu.Unlock()
	return resp, nil
}

// plans decodes every /v1/plan body recorded so far and forgets them.
func (rec *recorder) plans(t *testing.T) []PlanRequest {
	t.Helper()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var out []PlanRequest
	for _, r := range rec.reqs {
		if r.path != "/v1/plan" {
			continue
		}
		var req PlanRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			t.Fatalf("recorded /v1/plan body: %v", err)
		}
		out = append(out, req)
	}
	rec.reqs = nil
	return out
}

// uploaded returns the IDs of the definitions a sequence of plan
// requests carried, sorted.
func uploaded(reqs []PlanRequest) []string {
	ids := []string{}
	for _, req := range reqs {
		for _, pp := range req.Points {
			ids = append(ids, pp.ID)
		}
	}
	sort.Strings(ids)
	return ids
}

func sorted(ids []string) []string {
	out := append([]string{}, ids...)
	sort.Strings(out)
	return out
}

// serve opens a coordinator on checkpoint behind httptest and returns it
// with a recording client.
func serve(t *testing.T, checkpoint string) (*Server, *Client, *recorder) {
	t.Helper()
	s, err := NewServer(ServerOptions{Checkpoint: checkpoint, LeaseTTL: 10 * time.Second, MaxRetries: 3, Now: time.Now})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })
	rec := &recorder{}
	c := &Client{URL: hs.URL, HTTP: &http.Client{Transport: rec, Timeout: 30 * time.Second}, PollInterval: 5 * time.Millisecond}
	return s, c, rec
}

// fakeRun is the simulator stand-in of these tests: a deterministic
// function of the config, so any worker computes the same record.
func fakeRun(c core.Config) (metrics.Results, error) {
	return metrics.Results{MeanLatency: 1000 * c.Lambda, Delivered: 100}, nil
}

// drainWith runs one exit=drain worker until the coordinator is drained.
func drainWith(t *testing.T, c *Client) {
	t.Helper()
	w := &Worker{Client: c, Name: "drain", ExitOnDrain: true, IdlePoll: time.Millisecond, run: fakeRun}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if ctx.Err() != nil {
		t.Fatal("worker did not drain the coordinator")
	}
}

// runPlan is RunPlan with a worker alongside.
func runPlan(t *testing.T, c *Client, plan sweep.Plan) []core.PointResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := &Worker{Client: c, Name: "w", IdlePoll: time.Millisecond, run: fakeRun}
		_, _ = w.Run(ctx)
	}()
	got, err := c.RunPlan(ctx, plan)
	cancel()
	<-done
	if err != nil {
		t.Fatalf("RunPlan: %v", err)
	}
	return got
}

// TestDefinitionsTravelOnlyWhenUnknown is the digest protocol's contract,
// counted on the wire: a first RunPlan sends the IDs, is told all of them
// are unknown and uploads every definition once; a fully cached RunPlan
// sends no definition at all — and hashes nothing beyond the one
// plan.IDs() its caller made; a half-known plan uploads exactly the
// unknown half. Each RunPlan counts as one plan.
func TestDefinitionsTravelOnlyWhenUnknown(t *testing.T) {
	s, c, rec := serve(t, filepath.Join(t.TempDir(), "coord.jsonl"))
	both := testPlan(t, 8)
	known := sweep.Plan{Name: "known", Points: both.Points[:4]}
	ids := both.IDs()

	runPlan(t, c, known)
	reqs := rec.plans(t)
	if len(reqs) != 2 || len(reqs[0].Points) != 0 || !reflect.DeepEqual(reqs[0].IDs, ids[:4]) {
		t.Fatalf("first submission = %d requests, first %+v; want digests, then one upload", len(reqs), reqs)
	}
	if !reflect.DeepEqual(uploaded(reqs), sorted(ids[:4])) {
		t.Fatalf("first submission uploaded %v, want every point once %v", uploaded(reqs), sorted(ids[:4]))
	}

	runPlan(t, c, known)
	if reqs = rec.plans(t); len(reqs) != 1 || len(reqs[0].Points) != 0 {
		t.Fatalf("cached resubmission = %d plan requests carrying %v, want one carrying no definition", len(reqs), uploaded(reqs))
	}
	// A config that cannot be serialised makes sweep.PointID panic, so a
	// cached submission that goes through with such a plan hashed nothing:
	// not on the client (it was given the IDs) and not on the server (it
	// was sent no definition).
	poisoned := sweep.Plan{Name: known.Name, Points: append([]core.Point{}, known.Points...)}
	for i := range poisoned.Points {
		poisoned.Points[i].Config.Lambda = math.NaN()
	}
	if resp, err := c.submitPlan(poisoned, ids[:4]); err != nil || resp.Done != 4 {
		t.Fatalf("cached submission of an unhashable plan = %+v, %v; want 4 done", resp, err)
	}
	rec.plans(t)

	got := runPlan(t, c, both)
	if reqs = rec.plans(t); !reflect.DeepEqual(uploaded(reqs), sorted(ids[4:])) {
		t.Fatalf("half-known plan uploaded %v, want exactly the unknown half %v", uploaded(reqs), sorted(ids[4:]))
	}
	for i, r := range got {
		if r.Err != nil || r.Results.MeanLatency != 1000*both.Points[i].Config.Lambda {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
	if st := s.Status(); st.Plans != 4 || st.Points != 8 || st.ResultsAccepted != 8 {
		t.Fatalf("Status = %+v, want 4 plans (one per submission), 8 points, 8 accepted", st)
	}
}

// TestSkewedDefinitionChangesNothing: a definition whose ID does not
// match its content is refused with a 400 whichever way it arrives — in
// a full-form plan, or in the upload that follows a digest submission —
// and the refusal leaves the plan journal byte-identical and the state
// untouched, the good definitions beside it included.
func TestSkewedDefinitionChangesNothing(t *testing.T) {
	checkpoint := filepath.Join(t.TempDir(), "coord.jsonl")
	s, c, _ := serve(t, checkpoint)
	if _, err := c.SubmitPlan(testPlan(t, 2)); err != nil {
		t.Fatal(err)
	}
	journal := func() []byte {
		b, err := os.ReadFile(checkpoint + ".plan")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before, status := journal(), s.Status()

	plan := testPlan(t, 5)
	skewed := plan.Wire()[2:]
	skewed[1].Config.Seed++ // the ID no longer matches the content
	for name, req := range map[string]PlanRequest{
		"full form":           {Name: "skewed", Points: skewed},
		"upload after digest": {Name: "skewed", IDs: plan.IDs(), Points: skewed},
	} {
		var ae *APIError
		if err := c.do("/v1/plan", req, &PlanResponse{}); !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: err = %v, want a 400 APIError", name, err)
		}
		if !bytes.Equal(journal(), before) {
			t.Fatalf("%s: rejected submission wrote to the plan journal", name)
		}
		if st := s.Status(); !reflect.DeepEqual(st, status) {
			t.Fatalf("%s: rejected submission changed the state: %+v -> %+v", name, status, st)
		}
	}

	// The digest form alone registers nothing either while IDs are unknown.
	var resp PlanResponse
	if err := c.do("/v1/plan", PlanRequest{Name: "digest", IDs: plan.IDs()}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 5 || resp.Queued != 2 || !reflect.DeepEqual(resp.Unknown, plan.IDs()[2:]) {
		t.Fatalf("digest submission = %+v, want 2 queued and the other 3 unknown", resp)
	}
	if st := s.Status(); !bytes.Equal(journal(), before) || !reflect.DeepEqual(st, status) {
		t.Fatalf("incomplete digest submission changed the state: %+v -> %+v", status, st)
	}
}

// TestDrainWorkerExitsAfterDigestOnlyResubmission holds the sawWork
// latch to the digest form: a coordinator restarted on a complete
// journal has nothing to hand out, so a drain worker waits; a
// resubmission that is answered from the cache and carries no
// definition is still "the work arrived", and the worker exits.
func TestDrainWorkerExitsAfterDigestOnlyResubmission(t *testing.T) {
	checkpoint := filepath.Join(t.TempDir(), "coord.jsonl")
	plan := testPlan(t, 3)
	s1, c1, _ := serve(t, checkpoint)
	if _, err := c1.SubmitPlan(plan); err != nil {
		t.Fatal(err)
	}
	drainWith(t, c1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, c2, rec := serve(t, checkpoint)
	if st := s2.Status(); st.Done != 3 || st.Queued != 0 || st.Drained {
		t.Fatalf("restarted Status = %+v, want 3 done, nothing queued, not drained", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	exited := make(chan error, 1)
	go func() {
		w := &Worker{Client: c2, Name: "early", ExitOnDrain: true, IdlePoll: time.Millisecond, run: fakeRun}
		_, err := w.Run(ctx)
		exited <- err
	}()
	select {
	case err := <-exited:
		t.Fatalf("drain worker exited (%v) before any plan was submitted", err)
	case <-time.After(50 * time.Millisecond):
	}
	rec.plans(t)
	if _, err := c2.RunPlan(ctx, plan); err != nil {
		t.Fatal(err)
	}
	if reqs := rec.plans(t); len(reqs) != 1 || len(reqs[0].Points) != 0 {
		t.Fatalf("resubmission = %d plan requests carrying %v, want digests only", len(reqs), uploaded(reqs))
	}
	if err := <-exited; err != nil || ctx.Err() != nil {
		t.Fatalf("drain worker after the digest-only resubmission: err %v, ctx %v", err, ctx.Err())
	}
	if st := s2.Status(); st.ResultsAccepted != 0 || !st.Drained {
		t.Fatalf("Status = %+v, want nothing re-simulated and drained", st)
	}
}

// TestRepeatedPointFillsEverySlot: a plan may name one point twice; it
// is registered and simulated once and every slot gets its result.
func TestRepeatedPointFillsEverySlot(t *testing.T) {
	s, c, rec := serve(t, filepath.Join(t.TempDir(), "coord.jsonl"))
	plan := testPlan(t, 2)
	plan.Points = append(plan.Points, plan.Points[0], plan.Points[1], plan.Points[0])
	got := runPlan(t, c, plan)
	if len(got) != 5 {
		t.Fatalf("%d results for 5 slots", len(got))
	}
	for i, r := range got {
		if want := 1000 * plan.Points[i].Config.Lambda; r.Err != nil || r.Results.MeanLatency != want || !reflect.DeepEqual(r.Point, plan.Points[i]) {
			t.Fatalf("slot %d = %+v, want latency %v", i, r, want)
		}
	}
	if st := s.Status(); st.Points != 2 || st.ResultsAccepted != 2 {
		t.Fatalf("Status = %+v, want 2 points simulated once each", st)
	}
	if reqs := rec.plans(t); len(reqs) != 2 || reqs[1].IDs[4] != reqs[1].IDs[0] {
		t.Fatalf("plan requests = %+v, want the repeated IDs sent as they stand", reqs)
	}
}

func journalLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	lines = lines[:len(lines)-1] // the journal ends in a newline
	sort.Strings(lines)
	return lines
}

// TestCoordinatorJournalIsASweepJournal: the bytes the coordinator
// journals, caches and serves are the bytes sweep.Run journals for the
// same plan — the same lines, in completion order instead of plan order
// — and RecordsAgree takes the two as agreeing, point by point.
func TestCoordinatorJournalIsASweepJournal(t *testing.T) {
	plan := sweep.Plan{Name: "journal"}
	for _, lambda := range []float64{0.002, 0.004, 0.006} {
		cfg := core.DefaultConfig(4, 2, lambda)
		cfg.WarmupMessages = 20
		cfg.MeasureMessages = 100
		plan.Points = append(plan.Points, core.Point{Label: fmt.Sprintf("λ=%g", lambda), Config: cfg})
	}
	dir := t.TempDir()
	local, fleet := filepath.Join(dir, "local.jsonl"), filepath.Join(dir, "fleet.jsonl")
	if _, err := sweep.Run(plan, sweep.Options{Workers: 1, Checkpoint: local}); err != nil {
		t.Fatal(err)
	}

	s, c, _ := serve(t, fleet)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = (&Worker{Client: c, Name: "real", IdlePoll: time.Millisecond}).Run(ctx)
	}()
	if _, err := c.RunPlan(ctx, plan); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done

	// What /v1/results serves for a point is its journal line, byte for byte.
	body := string(s.resultsJSON(ResultsRequest{IDs: plan.IDs()}))
	for _, line := range journalLines(t, fleet) {
		if !strings.Contains(body, strings.TrimSuffix(line, "\n")) {
			t.Fatalf("/v1/results does not carry journal line %s", line)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := journalLines(t, fleet), journalLines(t, local); !reflect.DeepEqual(got, want) {
		t.Fatalf("coordinator journal differs from sweep.Run's:\n got %q\nwant %q", got, want)
	}
	localRecs, err := sweep.ReadJournal(local)
	if err != nil {
		t.Fatal(err)
	}
	fleetRecs, err := sweep.ReadJournal(fleet)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]sweep.Record{}
	for _, rec := range localRecs {
		byID[rec.ID] = rec
	}
	for _, rec := range fleetRecs {
		if prev, ok := byID[rec.ID]; !ok || !sweep.RecordsAgree(prev, rec) {
			t.Fatalf("fleet record %s (%q) has no agreeing local record", rec.ID, rec.Label)
		}
	}
	if len(byID) != len(plan.Points) || len(fleetRecs) != len(plan.Points) {
		t.Fatalf("%d local and %d fleet records, want %d each", len(byID), len(fleetRecs), len(plan.Points))
	}
}

// TestResultsWireMatchesTyped: the hand-assembled /v1/results reply for
// a request mixing cached, failed, pending, unknown and repeated IDs —
// some of them needing every escape JSON has — decodes to exactly what
// the typed Server.Results returns, which is what the test expects
// independently; it arrives under a Content-Length, and serving it
// encodes nothing: the journal does not grow.
func TestResultsWireMatchesTyped(t *testing.T) {
	clock := newFakeClock()
	s := newTestServer(t, clock, time.Second, 0)
	plan := testPlan(t, 3)
	ids := plan.IDs()
	mustSubmitPlan(t, s, plan)
	cached, failed, pending := ids[0], ids[1], ids[2]
	g := s.Lease(LeaseRequest{Worker: "w"})
	if _, err := s.SubmitResult(ResultRequest{ID: cached, Token: g.Token, Record: record(cached, 12.5)}); err != nil {
		t.Fatal(err)
	}
	s.Lease(LeaseRequest{Worker: "crashy"}) // leases `failed`; with retries=0 its first expiry fails it
	clock.Advance(2 * time.Second)

	unknown := []string{"feedfacefeedface", `quo"te`, `back\slash`, "ctl\x01\n\t", "caf\u00e9 \u2028", "<&>", ""}
	req := ResultsRequest{IDs: append([]string{pending, cached, failed, cached, pending}, unknown...)}
	want := ResultsResponse{
		Records: map[string]sweep.Record{cached: record(cached, 12.5)},
		Failed:  map[string]string{failed: "lease expired 1 times (worker died mid-point?)"},
		Pending: sorted(append([]string{pending, pending}, unknown...)),
	}

	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	body, _ := json.Marshal(req)
	journalBefore := journalLines(t, s.opt.Checkpoint)
	for round := 0; round < 3; round++ {
		r, err := http.Post(hs.URL+"/v1/results", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/results: %d %v", r.StatusCode, err)
		}
		if r.ContentLength != int64(len(raw)) {
			t.Fatalf("Content-Length = %d for a %d-byte reply", r.ContentLength, len(raw))
		}
		var got ResultsResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("reply does not decode: %v\n%s", err, raw)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("wire reply decodes to\n %+v\nwant\n %+v", got, want)
		}
		if typed := s.Results(req); !reflect.DeepEqual(typed, got) {
			t.Fatalf("typed Results\n %+v\ndiffers from the wire reply\n %+v", typed, got)
		}
	}
	if after := journalLines(t, s.opt.Checkpoint); !reflect.DeepEqual(after, journalBefore) || len(after) != 1 {
		t.Fatalf("serving results changed the journal: %q -> %q", journalBefore, after)
	}
}

// TestFleetPathStaysOnTheFastPath: over a RunPlan of real points — a
// chaos run, whose record carries windows, a failing point, whose record
// carries err, and labels in UTF-8 — and a cached resubmission, every
// /v1/result body a worker sent and every /v1/results reply the client
// read is in the layout decodeFast walks: none went to encoding/json.
func TestFleetPathStaysOnTheFastPath(t *testing.T) {
	_, c, rec := serve(t, filepath.Join(t.TempDir(), "coord.jsonl"))
	plan := sweep.Plan{Name: "fast"}
	for i, schedule := range []string{"", "mtbf:mtbf=400,mttr=150,elems=links", ""} {
		cfg := core.DefaultConfig(4, 2, 0.004)
		cfg.WarmupMessages, cfg.MeasureMessages, cfg.FaultSchedule = 20, 200, schedule
		if i == 2 {
			cfg.V = 1 // below every algorithm's MinV: the run fails
		}
		plan.Points = append(plan.Points, core.Point{Label: fmt.Sprintf("λ=0.004 · %d", i), Config: cfg})
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = (&Worker{Client: c, Name: "real", IdlePoll: time.Millisecond}).Run(ctx)
	}()
	var got []core.PointResult
	for pass := 0; pass < 2; pass++ {
		var err error
		if got, err = c.RunPlan(ctx, plan); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	<-done
	if got[0].Err != nil || len(got[1].Results.Windows) == 0 || got[2].Err == nil {
		t.Fatalf("results = %+v; want a plain point, a chaos point with windows and a failed point", got)
	}
	walked := map[string]int{}
	for _, r := range rec.reqs {
		var ok bool
		switch r.path {
		case "/v1/result":
			ok = decodeFast(r.body, new(ResultRequest))
		case "/v1/results":
			ok = decodeFast(r.reply, new(ResultsResponse))
		default:
			continue
		}
		if !ok {
			t.Fatalf("%s went to encoding/json:\nbody  %s\nreply %s", r.path, r.body, r.reply)
		}
		walked[r.path]++
	}
	if walked["/v1/result"] != len(plan.Points) || walked["/v1/results"] < 2 {
		t.Fatalf("walked %v; want one /v1/result per point and a /v1/results reply per pass", walked)
	}
}

// TestOversizedBodyRefused: a /v1/result or /v1/plan body one byte over
// MaxRequestBytes, of declared length or chunked, gets a 413 and changes
// nothing — /statusz and both journals are byte-identical after — where
// the same body with a short label or name is served.
func TestOversizedBodyRefused(t *testing.T) {
	s := newTestServer(t, newFakeClock(), time.Second, 0)
	plan := testPlan(t, 2)
	mustSubmitPlan(t, s, plan)
	id := plan.IDs()[0]
	h := s.Handler()
	bodies := func(pad string) map[string][]byte {
		result, _ := json.Marshal(ResultRequest{ID: id, Record: sweep.Record{ID: id, Label: pad}})
		plan, _ := json.Marshal(PlanRequest{Name: pad, IDs: plan.IDs()})
		return map[string][]byte{"/v1/result": result, "/v1/plan": plan}
	}
	state := func() string {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statusz", nil))
		var b strings.Builder
		b.Write(w.Body.Bytes())
		for _, path := range []string{s.opt.Checkpoint, s.opt.Checkpoint + ".plan"} {
			journal, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(journal)
		}
		return b.String()
	}
	before := state()
	for path, body := range bodies("") {
		oversized := bodies(strings.Repeat("x", MaxRequestBytes+1-len(body)))[path]
		for _, chunked := range []bool{false, true} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(oversized))
			if chunked {
				req.ContentLength = -1
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusRequestEntityTooLarge || !json.Valid(w.Body.Bytes()) {
				t.Fatalf("POST %s of %d bytes (chunked %v): %d %s", path, MaxRequestBytes+1, chunked, w.Code, w.Body)
			}
			if state() != before {
				t.Fatalf("a refused POST %s changed the coordinator's state", path)
			}
		}
	}
	for path, body := range bodies("short") {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("POST %s with a short pad: %d %s", path, w.Code, w.Body)
		}
	}
	if state() == before {
		t.Fatal("the short bodies changed nothing either")
	}
}
