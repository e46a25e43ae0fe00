package coord

import (
	"net/http"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// fakeClock is the injected coordinator clock: time only moves when a
// test advances it, making lease expiry deterministic and instant.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testPlan builds a small plan of distinct λ points (never simulated in
// the server-level tests; records are fabricated).
func testPlan(t testing.TB, n int) sweep.Plan {
	t.Helper()
	plan := sweep.Plan{Name: "coordtest"}
	for i := 0; i < n; i++ {
		cfg := core.DefaultConfig(4, 2, 0.002+0.002*float64(i))
		cfg.WarmupMessages = 20
		cfg.MeasureMessages = 100
		plan.Points = append(plan.Points, core.Point{Label: "pt", Config: cfg})
	}
	return plan
}

func record(id string, latency float64) sweep.Record {
	return sweep.Record{ID: id, Label: "pt", Results: metrics.Results{MeanLatency: latency, Delivered: 100}}
}

func newTestServer(t *testing.T, clock *fakeClock, ttl time.Duration, retries int) *Server {
	t.Helper()
	s, err := NewServer(ServerOptions{
		Checkpoint: filepath.Join(t.TempDir(), "coord.jsonl"),
		LeaseTTL:   ttl,
		MaxRetries: retries,
		Now:        clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustSubmitPlan(t *testing.T, s *Server, plan sweep.Plan) PlanResponse {
	t.Helper()
	resp, err := s.SubmitPlan(PlanRequest{Name: plan.Name, Points: plan.Wire()})
	if err != nil {
		t.Fatalf("SubmitPlan: %v", err)
	}
	return resp
}

func TestPlanLeaseResultRoundTrip(t *testing.T) {
	clock := newFakeClock()
	s := newTestServer(t, clock, 10*time.Second, 3)
	plan := testPlan(t, 3)
	ids := plan.IDs()

	resp := mustSubmitPlan(t, s, plan)
	if resp.Total != 3 || resp.Queued != 3 || resp.Done != 0 {
		t.Fatalf("submit = %+v, want 3 queued", resp)
	}

	grant := s.Lease(LeaseRequest{Worker: "w1"})
	if grant.Point == nil || grant.Point.ID != ids[0] {
		t.Fatalf("lease = %+v, want first plan point %s", grant, ids[0])
	}
	if grant.TTLMs != 10_000 {
		t.Fatalf("TTLMs = %d, want 10000", grant.TTLMs)
	}

	if _, err := s.SubmitResult(ResultRequest{ID: ids[0], Token: grant.Token, Record: record(ids[0], 25)}); err != nil {
		t.Fatalf("SubmitResult: %v", err)
	}
	res := s.Results(ResultsRequest{IDs: ids})
	if len(res.Records) != 1 || res.Records[ids[0]].Results.MeanLatency != 25 {
		t.Fatalf("Results records = %v", res.Records)
	}
	if !reflect.DeepEqual(res.Pending, []string{min2(ids[1], ids[2]), max2(ids[1], ids[2])}) {
		t.Fatalf("Pending = %v, want sorted remaining ids", res.Pending)
	}

	st := s.Status()
	if st.Points != 3 || st.Done != 1 || st.Queued != 2 || st.Leased != 0 || st.ResultsAccepted != 1 {
		t.Fatalf("Status = %+v", st)
	}
	if st.Drained {
		t.Fatal("Drained with queued work")
	}

	// A result for a point no plan ever submitted is rejected.
	if _, err := s.SubmitResult(ResultRequest{ID: "feedfacefeedface", Record: record("feedfacefeedface", 1)}); err == nil {
		t.Fatal("result for unknown point accepted")
	} else if he, ok := err.(*httpError); !ok || he.status != http.StatusNotFound {
		t.Fatalf("unknown point error = %v, want 404", err)
	}
}

func min2(a, b string) string {
	if a < b {
		return a
	}
	return b
}

func max2(a, b string) string {
	if a < b {
		return b
	}
	return a
}

func TestLeaseExpiryReassignsPoint(t *testing.T) {
	clock := newFakeClock()
	s := newTestServer(t, clock, 5*time.Second, 3)
	plan := testPlan(t, 1)
	id := plan.IDs()[0]
	mustSubmitPlan(t, s, plan)

	g1 := s.Lease(LeaseRequest{Worker: "victim"})
	if g1.Point == nil {
		t.Fatal("no lease granted")
	}
	// Heartbeats keep it alive...
	clock.Advance(4 * time.Second)
	if err := s.Renew(RenewRequest{ID: id, Token: g1.Token}); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	clock.Advance(4 * time.Second)
	if g := s.Lease(LeaseRequest{Worker: "other"}); g.Point != nil {
		t.Fatal("renewed lease was handed out again")
	}
	// ...until the victim dies (no renewal past TTL).
	clock.Advance(2 * time.Second)
	g2 := s.Lease(LeaseRequest{Worker: "rescuer"})
	if g2.Point == nil || g2.Point.ID != id {
		t.Fatalf("expired point not re-leased: %+v", g2)
	}
	if g2.Token == g1.Token {
		t.Fatal("re-lease reused the dead token")
	}
	// The dead worker's heartbeat now tells it the lease moved on.
	if err := s.Renew(RenewRequest{ID: id, Token: g1.Token}); err == nil {
		t.Fatal("stale token renewed")
	}
	st := s.Status()
	if st.Expired != 1 || st.Leased != 1 {
		t.Fatalf("Status after reassignment = %+v", st)
	}
	if len(st.Leases) != 1 || st.Leases[0].Worker != "rescuer" || st.Leases[0].Retries != 1 {
		t.Fatalf("lease table = %+v", st.Leases)
	}

	// The slow victim's result, arriving after reassignment, is still a
	// correct deterministic result: accepted, counted late.
	if resp, err := s.SubmitResult(ResultRequest{ID: id, Token: g1.Token, Record: record(id, 30)}); err != nil || resp.Status != "accepted" {
		t.Fatalf("late result: %v %+v", err, resp)
	}
	if st := s.Status(); st.LateResults != 1 || st.Done != 1 || st.Leased != 0 {
		t.Fatalf("Status after late result = %+v", st)
	}
}

func TestBoundedRetriesFailPoint(t *testing.T) {
	clock := newFakeClock()
	s := newTestServer(t, clock, time.Second, 1)
	plan := testPlan(t, 1)
	id := plan.IDs()[0]
	mustSubmitPlan(t, s, plan)

	for i := 0; i < 2; i++ {
		g := s.Lease(LeaseRequest{Worker: "crashy"})
		if g.Point == nil {
			t.Fatalf("round %d: no lease", i)
		}
		clock.Advance(2 * time.Second)
	}
	if g := s.Lease(LeaseRequest{Worker: "crashy"}); g.Point != nil {
		t.Fatal("retry-exhausted point leased again")
	}
	res := s.Results(ResultsRequest{IDs: []string{id}})
	if len(res.Failed) != 1 || res.Failed[id] == "" {
		t.Fatalf("Results.Failed = %v, want reason for %s", res.Failed, id)
	}
	if len(res.Pending) != 0 {
		t.Fatalf("failed point still pending: %v", res.Pending)
	}
	st := s.Status()
	if st.Failed != 1 || st.Expired != 2 {
		t.Fatalf("Status = %+v", st)
	}
	if !st.Drained {
		t.Fatal("coordinator with only a failed point should report drained")
	}
	// Re-submitting the plan reports the failure, not a re-queue.
	if resp := mustSubmitPlan(t, s, plan); resp.Failed != 1 || resp.Queued != 0 {
		t.Fatalf("resubmit = %+v", resp)
	}
}

func TestDuplicateAcceptedOnceConflictRejected(t *testing.T) {
	clock := newFakeClock()
	s := newTestServer(t, clock, 10*time.Second, 3)
	plan := testPlan(t, 1)
	id := plan.IDs()[0]
	mustSubmitPlan(t, s, plan)
	g := s.Lease(LeaseRequest{Worker: "w1"})

	if resp, err := s.SubmitResult(ResultRequest{ID: id, Token: g.Token, Record: record(id, 40)}); err != nil || resp.Status != "accepted" {
		t.Fatalf("first submit: %v %+v", err, resp)
	}
	// Identical record again (another worker raced the same point):
	// idempotent duplicate.
	if resp, err := s.SubmitResult(ResultRequest{ID: id, Record: record(id, 40)}); err != nil || resp.Status != "duplicate" {
		t.Fatalf("duplicate submit: %v %+v", err, resp)
	}
	// A *different* record for the same ID is a determinism violation.
	if _, err := s.SubmitResult(ResultRequest{ID: id, Record: record(id, 41)}); err == nil {
		t.Fatal("conflicting result accepted")
	} else if he, ok := err.(*httpError); !ok || he.status != http.StatusConflict {
		t.Fatalf("conflict error = %v, want 409", err)
	}
	st := s.Status()
	if st.Duplicates != 1 || st.Conflicts != 1 || st.ResultsAccepted != 1 {
		t.Fatalf("Status = %+v", st)
	}
	// The original record survives the conflicting attempt.
	res := s.Results(ResultsRequest{IDs: []string{id}})
	if res.Records[id].Results.MeanLatency != 40 {
		t.Fatalf("cache overwritten: %v", res.Records[id])
	}
}

func TestRepeatPlanServedFromCache(t *testing.T) {
	clock := newFakeClock()
	s := newTestServer(t, clock, 10*time.Second, 3)
	plan := testPlan(t, 2)
	ids := plan.IDs()
	mustSubmitPlan(t, s, plan)
	for _, id := range ids {
		g := s.Lease(LeaseRequest{Worker: "w"})
		if _, err := s.SubmitResult(ResultRequest{ID: g.Point.ID, Token: g.Token, Record: record(g.Point.ID, 10)}); err != nil {
			t.Fatal(err)
		}
		_ = id
	}
	accepted := s.Status().ResultsAccepted

	// The whole plan again: everything cached, nothing queued.
	resp := mustSubmitPlan(t, s, plan)
	if resp.Done != 2 || resp.Queued != 0 {
		t.Fatalf("repeat submit = %+v, want all done", resp)
	}
	res := s.Results(ResultsRequest{IDs: ids})
	if len(res.Records) != 2 || len(res.Pending) != 0 {
		t.Fatalf("repeat results = %+v", res)
	}
	st := s.Status()
	if st.ResultsAccepted != accepted {
		t.Fatalf("re-simulation happened: accepted %d -> %d", accepted, st.ResultsAccepted)
	}
	if st.CacheHits < 4 { // 2 at submission + 2 lookups
		t.Fatalf("CacheHits = %d, want >= 4", st.CacheHits)
	}
	if g := s.Lease(LeaseRequest{Worker: "w"}); g.Point != nil || !g.Drained {
		t.Fatalf("lease after full completion = %+v, want drained idle", g)
	}
}

func TestVersionSkewedPlanRejectedAtomically(t *testing.T) {
	clock := newFakeClock()
	s := newTestServer(t, clock, 10*time.Second, 3)
	wire := testPlan(t, 2).Wire()
	wire[1].ID = "0000000000000000" // digest no longer matches the config
	if _, err := s.SubmitPlan(PlanRequest{Name: "skewed", Points: wire}); err == nil {
		t.Fatal("skewed plan accepted")
	}
	if st := s.Status(); st.Points != 0 || st.Queued != 0 {
		t.Fatalf("partial state after rejected plan: %+v", st)
	}
}

func TestRestartRecoversQueuedAndDoneState(t *testing.T) {
	clock := newFakeClock()
	checkpoint := filepath.Join(t.TempDir(), "coord.jsonl")
	opts := ServerOptions{Checkpoint: checkpoint, LeaseTTL: 5 * time.Second, MaxRetries: 3, Now: clock.Now}
	plan := testPlan(t, 3)
	ids := plan.IDs()

	s1, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.SubmitPlan(PlanRequest{Name: plan.Name, Points: plan.Wire()}); err != nil {
		t.Fatal(err)
	}
	// Complete the first point; lease (but never finish) the second —
	// then the coordinator "crashes".
	g := s1.Lease(LeaseRequest{Worker: "w"})
	if _, err := s1.SubmitResult(ResultRequest{ID: g.Point.ID, Token: g.Token, Record: record(g.Point.ID, 10)}); err != nil {
		t.Fatal(err)
	}
	if g2 := s1.Lease(LeaseRequest{Worker: "w"}); g2.Point == nil {
		t.Fatal("second lease empty")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Status()
	// The completed record is cached; the leased-but-unfinished point
	// degraded to queued (leases are ephemeral), alongside the
	// never-leased one.
	if st.Done != 1 || st.Queued != 2 || st.Leased != 0 || st.Points != 3 {
		t.Fatalf("recovered Status = %+v", st)
	}
	res := s2.Results(ResultsRequest{IDs: ids})
	if len(res.Records) != 1 || res.Records[ids[0]].Results.MeanLatency != 10 {
		t.Fatalf("recovered Results = %+v", res)
	}
	// Remaining work is servable: both points lease out in plan order.
	ga := s2.Lease(LeaseRequest{Worker: "w2"})
	gb := s2.Lease(LeaseRequest{Worker: "w2"})
	if ga.Point == nil || gb.Point == nil || ga.Point.ID != ids[1] || gb.Point.ID != ids[2] {
		t.Fatalf("recovered leases = %v, %v; want %s, %s", ga.Point, gb.Point, ids[1], ids[2])
	}
}
