// Package coord turns the sweep subsystem into a service: a
// long-running HTTP/JSON coordinator that accepts sweep plans, leases
// point IDs to pull-based workers on any host, streams completed
// records into the standard checkpoint journal, and serves a
// digest-keyed result cache so a repeated request for any
// already-computed point returns instantly instead of re-simulating.
//
// The primitives are all inherited from repro/internal/sweep, which is
// what makes a distributed coordinator safe to bolt on:
//
//   - Point identity is the stable content digest sweep.PointID, so the
//     same point submitted by any process, host or restart is recognised
//     as the same work — the cache key and the dedup key are one thing.
//   - Completed records append to a standard JSONL checkpoint journal
//     (single writer, O_APPEND, torn-tail recovery), so a coordinator
//     journal is a sweep journal: renderable by swsim/figures
//     -checkpoint, mergeable by MergeJournals.
//   - Result consistency is sweep.RecordsAgree — engine runs are
//     deterministic, so two workers computing one point must agree
//     bit-for-bit; a conflicting submission is rejected as a
//     determinism violation (version-skewed fleet), never silently
//     overwritten.
//
// Work distribution is pull-based: workers poll POST /v1/lease and the
// coordinator hands out queued points under heartbeat-renewed leases
// (sweep.LeaseTable). A worker that dies mid-point simply stops
// renewing; the lease expires and the point re-queues for another
// worker, a bounded number of times. Queued state survives coordinator
// restarts through a second JSONL file (the plan journal,
// <checkpoint>.plan): on startup every journalled plan point without a
// completed record re-queues.
//
// The package has three faces: Server (the coordinator state machine +
// HTTP handler), Client (typed API calls with jittered-exponential
// retry, plus RunPlan — the submit-and-poll loop that lets swsim -sweep
// and figures run any existing sweep against a fleet), and Worker (the
// lease/run/submit loop behind swsim -worker).
package coord

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/sweep"
)

// DefaultLeaseTTL is the lease duration when ServerOptions.LeaseTTL is
// zero: long enough for a heartbeat cadence of TTL/3 to tolerate two
// missed beats, short enough that a dead worker's point re-queues
// promptly.
const DefaultLeaseTTL = 15 * time.Second

// DefaultMaxRetries is the default bound on lease re-assignments per
// point (ServerOptions.MaxRetries < 0 selects it... see field doc).
const DefaultMaxRetries = 3

// ServerOptions configures a coordinator.
type ServerOptions struct {
	// Checkpoint is the JSONL journal completed records append to
	// (required). The plan journal, which persists queued work across
	// restarts, lives alongside it at Checkpoint+".plan".
	Checkpoint string
	// LeaseTTL is the worker lease duration; 0 means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// MaxRetries bounds lease re-assignments per point; a point whose
	// lease expires MaxRetries+1 times is failed. 0 is honoured (fail on
	// the first expiry); negative means DefaultMaxRetries.
	MaxRetries int
	// Now supplies wall-clock time and is required (cmd layers pass
	// time.Now; tests pass a fake). The simulator proper is forbidden
	// ambient clock reads by the rngpurity contract, so the service
	// layer takes its clock explicitly too.
	Now func() time.Time
	// Log, when non-nil, receives one-line operational notes.
	Log io.Writer
}

// Status is the /statusz document: gauges over the point table, the
// service counters, and the per-worker lease table.
type Status struct {
	// Points is the number of known plan points (queued, leased, failed
	// or completed-with-definition); Done additionally counts journal
	// records for points this incarnation never saw a definition for.
	Points int `json:"points"`
	// Queued, Leased, Failed gauge the lease table.
	Queued int `json:"queued"`
	Leased int `json:"leased"`
	Failed int `json:"failed"`
	// Done is the number of cached records (the digest-keyed cache).
	Done int `json:"done"`
	// Drained reports that work arrived (a plan was submitted, or a
	// restart re-queued journalled points) and none of it is queued or
	// leased any more: a fleet started for a batch can exit (worker
	// exit=drain watches this). A coordinator that has not yet been given
	// anything is idle, not drained — workers started ahead of their
	// plan must wait for it.
	Drained bool `json:"drained"`
	// Plans counts plan submissions; CacheHits counts already-computed
	// points served back (at submission and via /v1/results) without
	// re-simulation; ResultsAccepted counts records accepted from
	// workers — the "how much was actually simulated" counter the
	// coordinator-smoke CI job asserts on.
	Plans           uint64 `json:"plans"`
	CacheHits       uint64 `json:"cache_hits"`
	ResultsAccepted uint64 `json:"results_accepted"`
	// Duplicates counts agreeing re-submissions (accepted once, by the
	// first writer); Conflicts counts disagreeing ones (rejected as
	// determinism violations); LateResults counts results accepted from
	// a lease that had already expired; Expired counts lease expiries.
	Duplicates  uint64 `json:"duplicates"`
	Conflicts   uint64 `json:"conflicts"`
	LateResults uint64 `json:"late_results"`
	Expired     uint64 `json:"expired"`
	// Leases is the held-lease table, sorted by point ID.
	Leases []sweep.LeaseInfo `json:"leases,omitempty"`
}

// Server is the coordinator: the point/record/lease state machine with
// its journals, exposed over HTTP by Handler. All state transitions
// serialise on one mutex; journal appends happen inside it, preserving
// the single-writer contract.
type Server struct {
	opt ServerOptions

	mu          sync.Mutex
	journal     *sweep.Journal
	planJournal *sweep.JSONL[sweep.PlanPoint]
	points      map[string]sweep.PlanPoint
	records     map[string]sweep.Record
	leases      *sweep.LeaseTable

	// sawWork latches once this incarnation has had anything to hand out;
	// see Status.Drained.
	sawWork bool

	plans, cacheHits, resultsAccepted uint64
	duplicates, conflicts             uint64
	lateResults, expired              uint64
}

// NewServer opens (creating if absent) the record and plan journals and
// recovers the coordinator's state: every journalled record seeds the
// result cache, and every journalled plan point without a record
// re-queues — a restarted coordinator resumes exactly where the fleet
// left off, with in-flight leases (which are ephemeral by design)
// degraded to queued.
func NewServer(opt ServerOptions) (*Server, error) {
	if opt.Checkpoint == "" {
		return nil, fmt.Errorf("coord: ServerOptions.Checkpoint is required")
	}
	if opt.Now == nil {
		return nil, fmt.Errorf("coord: ServerOptions.Now is required (pass time.Now from the cmd layer)")
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = DefaultLeaseTTL
	}
	if opt.MaxRetries < 0 {
		opt.MaxRetries = DefaultMaxRetries
	}
	journal, err := sweep.OpenJournal(opt.Checkpoint)
	if err != nil {
		return nil, err
	}
	planJournal, err := sweep.OpenJSONL[sweep.PlanPoint](opt.Checkpoint + ".plan")
	if err != nil {
		_ = journal.Close()
		return nil, err
	}
	s := &Server{
		opt:         opt,
		journal:     journal,
		planJournal: planJournal,
		points:      map[string]sweep.PlanPoint{},
		records:     map[string]sweep.Record{},
		leases:      sweep.NewLeaseTable(opt.LeaseTTL, opt.MaxRetries),
	}
	for _, rec := range journal.Records() {
		s.records[rec.ID] = rec
	}
	queued := 0
	for _, pp := range planJournal.Records() {
		if _, ok := s.points[pp.ID]; ok {
			continue
		}
		if err := pp.Verify(); err != nil {
			_ = journal.Close()
			_ = planJournal.Close()
			return nil, fmt.Errorf("coord: plan journal %s.plan: %w (delete the plan journal to discard its queued work)", opt.Checkpoint, err)
		}
		s.points[pp.ID] = pp
		if _, done := s.records[pp.ID]; !done {
			s.leases.Add(pp.ID)
			queued++
		}
	}
	s.sawWork = queued > 0
	if len(s.records) > 0 || queued > 0 {
		s.logf("coord: recovered %d completed records, re-queued %d points from %s", len(s.records), queued, opt.Checkpoint)
	}
	return s, nil
}

// Close closes both journals.
func (s *Server) Close() error {
	err := s.journal.Close()
	if perr := s.planJournal.Close(); err == nil {
		err = perr
	}
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.Log != nil {
		fmt.Fprintf(s.opt.Log, format+"\n", args...)
	}
}

// expireLocked sweeps stale leases (requeue or fail) and updates the
// counters. Callers hold s.mu.
func (s *Server) expireLocked(now time.Time) {
	requeued, failed := s.leases.Expire(now)
	s.expired += uint64(len(requeued) + len(failed))
	for _, id := range requeued {
		s.logf("coord: lease on %s expired; re-queued", id)
	}
	for _, id := range failed {
		s.logf("coord: point %s failed: %s", id, s.leases.FailReason(id))
	}
}

// SubmitPlan registers a plan's points: already-computed points count
// as cache hits, already-known ones are left in place, and new ones are
// journalled to the plan journal and queued. Every point is
// digest-verified before any state changes, so a version-skewed
// submission is rejected atomically.
func (s *Server) SubmitPlan(req PlanRequest) (PlanResponse, error) {
	for _, pp := range req.Points {
		if err := pp.Verify(); err != nil {
			return PlanResponse{}, &httpError{http.StatusBadRequest, err.Error()}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plans++
	s.sawWork = true
	var resp PlanResponse
	resp.Total = len(req.Points)
	for _, pp := range req.Points {
		if _, done := s.records[pp.ID]; done {
			resp.Done++
			s.cacheHits++
			continue
		}
		if _, known := s.points[pp.ID]; known {
			if s.leases.FailReason(pp.ID) != "" {
				resp.Failed++
			} else {
				resp.Queued++
			}
			continue
		}
		if err := s.planJournal.Append(pp); err != nil {
			return PlanResponse{}, &httpError{http.StatusInternalServerError, err.Error()}
		}
		s.points[pp.ID] = pp
		s.leases.Add(pp.ID)
		resp.Queued++
	}
	s.logf("coord: plan %q: %d points (%d cached, %d queued/known, %d failed)", req.Name, resp.Total, resp.Done, resp.Queued, resp.Failed)
	return resp, nil
}

// Lease hands the queue head to a worker, or reports idle (and whether
// the coordinator is fully drained) when nothing is queued.
func (s *Server) Lease(req LeaseRequest) LeaseResponse {
	worker := req.Worker
	if worker == "" {
		worker = "anonymous"
	}
	now := s.opt.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(now)
	id, token, ok := s.leases.Acquire(now, worker)
	if !ok {
		return LeaseResponse{Drained: s.drainedLocked()}
	}
	pp := s.points[id]
	return LeaseResponse{Point: &pp, Token: token, TTLMs: s.opt.LeaseTTL.Milliseconds()}
}

// drainedLocked implements Status.Drained. Callers hold s.mu.
func (s *Server) drainedLocked() bool {
	queued, leased, _ := s.leases.Counts()
	return s.sawWork && queued == 0 && leased == 0
}

// Renew extends a worker's lease (the heartbeat).
func (s *Server) Renew(req RenewRequest) error {
	now := s.opt.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(now)
	if err := s.leases.Renew(req.ID, req.Token, now); err != nil {
		return &httpError{http.StatusConflict, err.Error()}
	}
	return nil
}

// SubmitResult accepts one completed record. A record for an
// already-cached point is checked against the cache: agreement (under
// sweep.RecordsAgree) is an idempotent duplicate, disagreement is a
// determinism violation and is rejected. New records append to the
// checkpoint journal before entering the cache. The lease token is
// advisory: a correct result from an expired lease is still a correct
// result (the engine is deterministic) and is accepted, counted as
// late.
func (s *Server) SubmitResult(req ResultRequest) (ResultResponse, error) {
	rec := req.Record
	if rec.ID == "" {
		rec.ID = req.ID
	}
	if rec.ID != req.ID {
		return ResultResponse{}, &httpError{http.StatusBadRequest,
			fmt.Sprintf("coord: result ID %s does not match record ID %s", req.ID, rec.ID)}
	}
	now := s.opt.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(now)
	if prev, done := s.records[rec.ID]; done {
		if !sweep.RecordsAgree(prev, rec) {
			s.conflicts++
			return ResultResponse{}, &httpError{http.StatusConflict,
				fmt.Sprintf("coord: conflicting result for point %s (%q): determinism violation — records from diverging code or data", rec.ID, rec.Label)}
		}
		s.duplicates++
		return ResultResponse{Status: "duplicate"}, nil
	}
	if _, known := s.points[rec.ID]; !known {
		return ResultResponse{}, &httpError{http.StatusNotFound,
			fmt.Sprintf("coord: result for unknown point %s (no plan submitted it)", rec.ID)}
	}
	if err := s.journal.Append(rec); err != nil {
		return ResultResponse{}, &httpError{http.StatusInternalServerError, err.Error()}
	}
	s.records[rec.ID] = rec
	s.resultsAccepted++
	if _, token, held := s.leases.Holder(rec.ID); !held || token != req.Token {
		s.lateResults++
		s.logf("coord: late result for %s accepted (lease moved on)", rec.ID)
	}
	s.leases.Remove(rec.ID)
	return ResultResponse{Status: "accepted"}, nil
}

// Results answers a batch lookup: cached records (cache hits), failure
// reasons for retry-exhausted points, and the IDs still pending.
func (s *Server) Results(req ResultsRequest) ResultsResponse {
	now := s.opt.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(now)
	resp := ResultsResponse{Records: map[string]sweep.Record{}, Failed: map[string]string{}}
	for _, id := range req.IDs {
		if rec, ok := s.records[id]; ok {
			resp.Records[id] = rec
			s.cacheHits++
			continue
		}
		if reason := s.leases.FailReason(id); reason != "" {
			resp.Failed[id] = reason
			continue
		}
		resp.Pending = append(resp.Pending, id)
	}
	sort.Strings(resp.Pending)
	return resp
}

// Status assembles the /statusz document.
func (s *Server) Status() Status {
	now := s.opt.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(now)
	queued, leased, failed := s.leases.Counts()
	return Status{
		Points:          len(s.points),
		Queued:          queued,
		Leased:          leased,
		Failed:          failed,
		Done:            len(s.records),
		Drained:         s.drainedLocked(),
		Plans:           s.plans,
		CacheHits:       s.cacheHits,
		ResultsAccepted: s.resultsAccepted,
		Duplicates:      s.duplicates,
		Conflicts:       s.conflicts,
		LateResults:     s.lateResults,
		Expired:         s.expired,
		Leases:          s.leases.Leases(),
	}
}
