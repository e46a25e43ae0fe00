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
//     as the same work — the cache key and the dedup key are one thing,
//     and the thing a plan submission sends: a definition travels only
//     when the coordinator holds neither a record nor a definition for
//     its ID.
//   - Completed records append to a standard JSONL checkpoint journal
//     (single writer, O_APPEND, torn-tail recovery), so a coordinator
//     journal is a sweep journal: renderable by swsim/figures
//     -checkpoint. The journal line is also the cache entry and the
//     bytes on the wire, encoded once. The fleet is the tree's one way to
//     split a sweep across processes or hosts.
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
	"strconv"
	"sync"
	"time"

	"repro/internal/sweep"
)

// DefaultLeaseTTL is the lease duration when ServerOptions.LeaseTTL is
// zero: long enough for a heartbeat cadence of TTL/3 to tolerate two
// missed beats, short enough that a dead worker's point re-queues
// promptly.
const DefaultLeaseTTL = 15 * time.Second

// DefaultMaxRetries is the bound on lease re-assignments per point when
// ServerOptions.MaxRetries is negative.
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
//
// A definition and a record each have one representation here: the line
// their journal holds. It is encoded once — when a plan or a result is
// accepted; a restart reads it back — and is what /v1/lease and
// /v1/results put on the wire, byte for byte. The typed methods (Lease,
// Results, the duplicate check) decode it on demand.
type Server struct {
	opt ServerOptions

	mu          sync.Mutex
	journal     *sweep.Journal
	planJournal *sweep.JSONL[sweep.PlanPoint]
	points      map[string][]byte // point ID -> plan-journal line
	records     map[string][]byte // point ID -> checkpoint-journal line
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
	s := &Server{
		opt:     opt,
		points:  map[string][]byte{},
		records: map[string][]byte{},
		leases:  sweep.NewLeaseTable(opt.LeaseTTL, opt.MaxRetries),
	}
	var err error
	s.journal, err = sweep.OpenJSONLFunc(opt.Checkpoint, func(rec sweep.Record, line []byte) error {
		s.records[rec.ID] = line
		return nil
	})
	if err != nil {
		return nil, err
	}
	queued := 0
	s.planJournal, err = sweep.OpenJSONLFunc(opt.Checkpoint+".plan", func(pp sweep.PlanPoint, line []byte) error {
		if _, ok := s.points[pp.ID]; ok {
			return nil
		}
		if err := pp.Verify(); err != nil {
			return fmt.Errorf("%w (delete the plan journal to discard its queued work)", err)
		}
		s.points[pp.ID] = line
		if _, done := s.records[pp.ID]; !done {
			s.leases.Add(pp.ID)
			queued++
		}
		return nil
	})
	if err != nil {
		_ = s.journal.Close() // best-effort: the plan-journal error is the one to report
		return nil, err
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

// SubmitPlan registers a plan. The plan is req.IDs — or, in the full
// form without them, the IDs of req.Points: already-computed points
// count as cache hits, already-known ones are left in place, and new
// ones (defined by req.Points) are journalled to the plan journal in one
// write and queued. An ID with no record, no known definition and none
// in req.Points is reported in Unknown; a submission with unknown IDs
// registers and counts nothing, and the submitter repeats it with those
// definitions attached. Every definition is digest-verified before any
// state changes, so a version-skewed submission is rejected atomically.
func (s *Server) SubmitPlan(req PlanRequest) (PlanResponse, error) {
	ids := req.IDs
	defs := make(map[string][]byte, len(req.Points)) // point ID -> journal line, newline included
	for _, pp := range req.Points {
		if err := pp.Verify(); err != nil {
			return PlanResponse{}, &httpError{http.StatusBadRequest, err.Error()}
		}
		line, err := sweep.EncodeLine(pp)
		if err != nil {
			return PlanResponse{}, &httpError{http.StatusBadRequest, err.Error()}
		}
		defs[pp.ID] = line
		if req.IDs == nil {
			ids = append(ids, pp.ID)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	resp := PlanResponse{Total: len(ids)}
	// New points enter s.points as they are met, so that a plan repeating
	// a point finds the repeat known; they leave again if the submission
	// turns out incomplete or the journal write fails.
	var fresh []string
	var journal []byte
	for _, id := range ids {
		if _, done := s.records[id]; done {
			resp.Done++
			continue
		}
		if _, known := s.points[id]; known {
			if s.leases.FailReason(id) != "" {
				resp.Failed++
			} else {
				resp.Queued++
			}
			continue
		}
		line, defined := defs[id]
		if !defined {
			resp.Unknown = append(resp.Unknown, id)
			continue
		}
		s.points[id] = line[:len(line)-1]
		fresh = append(fresh, id)
		journal = append(journal, line...)
		resp.Queued++
	}
	var err error
	if len(resp.Unknown) == 0 && len(fresh) > 0 {
		err = s.planJournal.AppendLines(journal)
	}
	if len(resp.Unknown) > 0 || err != nil {
		for _, id := range fresh {
			delete(s.points, id)
		}
		if err != nil {
			return PlanResponse{}, &httpError{http.StatusInternalServerError, err.Error()}
		}
		return resp, nil
	}
	for _, id := range fresh {
		s.leases.Add(id)
	}
	s.plans++
	s.sawWork = true
	s.cacheHits += uint64(resp.Done)
	s.logf("coord: plan %q: %d points (%d cached, %d queued/known, %d failed)", req.Name, resp.Total, resp.Done, resp.Queued, resp.Failed)
	return resp, nil
}

// Lease hands the queue head to a worker, or reports idle (and whether
// the coordinator is fully drained) when nothing is queued.
func (s *Server) Lease(req LeaseRequest) LeaseResponse {
	return decodeOwn[LeaseResponse](s.leaseJSON(req))
}

// leaseJSON is Lease in wire form: the point is its plan-journal line.
func (s *Server) leaseJSON(req LeaseRequest) rawJSON {
	worker := req.Worker
	if worker == "" {
		worker = "anonymous"
	}
	now := s.opt.Now()
	s.mu.Lock()
	s.expireLocked(now)
	id, token, ok := s.leases.Acquire(now, worker)
	point, drained := s.points[id], s.drainedLocked()
	s.mu.Unlock()
	if !ok {
		if drained {
			return rawJSON(`{"drained":true}` + "\n")
		}
		return rawJSON("{}\n")
	}
	buf := make([]byte, 0, len(point)+64)
	buf = append(buf, `{"point":`...)
	buf = append(buf, point...)
	buf = append(buf, `,"token":`...)
	buf = appendJSONString(buf, token)
	buf = append(buf, `,"ttl_ms":`...)
	buf = strconv.AppendInt(buf, s.opt.LeaseTTL.Milliseconds(), 10)
	return append(buf, "}\n"...)
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
	line, err := sweep.EncodeLine(rec)
	if err != nil {
		return ResultResponse{}, &httpError{http.StatusBadRequest, err.Error()}
	}
	now := s.opt.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(now)
	if prev, done := s.records[rec.ID]; done {
		if !sweep.RecordsAgree(decodeOwn[sweep.Record](prev), rec) {
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
	if err := s.journal.AppendLines(line); err != nil {
		return ResultResponse{}, &httpError{http.StatusInternalServerError, err.Error()}
	}
	s.records[rec.ID] = line[:len(line)-1]
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
	return decodeOwn[ResultsResponse](s.resultsJSON(req))
}

// resultsJSON is Results in wire form: each record is its checkpoint-
// journal line, in request order (a repeated ID repeats its entry).
func (s *Server) resultsJSON(req ResultsRequest) rawJSON {
	lines := make([][]byte, len(req.IDs)) // non-nil where req.IDs[i] is cached
	var failed, reasons, pending []string
	size := 64
	now := s.opt.Now()
	s.mu.Lock()
	s.expireLocked(now)
	for i, id := range req.IDs {
		if line, ok := s.records[id]; ok {
			lines[i] = line
			size += len(id) + len(line) + 4
			s.cacheHits++
		} else if reason := s.leases.FailReason(id); reason != "" {
			failed, reasons = append(failed, id), append(reasons, reason)
			size += len(id) + len(reason) + 8
		} else {
			pending = append(pending, id)
			size += len(id) + 4
		}
	}
	s.mu.Unlock()
	sort.Strings(pending)

	// comma separates the members of the innermost open object or array.
	comma := func(buf []byte) []byte {
		if c := buf[len(buf)-1]; c != '{' && c != '[' {
			buf = append(buf, ',')
		}
		return buf
	}
	buf := append(make([]byte, 0, size), `{"records":{`...)
	for i, line := range lines {
		if line != nil {
			buf = append(appendJSONString(comma(buf), req.IDs[i]), ':')
			buf = append(buf, line...)
		}
	}
	buf = append(buf, '}')
	if len(failed) > 0 {
		buf = append(buf, `,"failed":{`...)
		for i, id := range failed {
			buf = append(appendJSONString(comma(buf), id), ':')
			buf = appendJSONString(buf, reasons[i])
		}
		buf = append(buf, '}')
	}
	if len(pending) > 0 {
		buf = append(buf, `,"pending":[`...)
		for _, id := range pending {
			buf = appendJSONString(comma(buf), id)
		}
		buf = append(buf, ']')
	}
	return append(buf, "}\n"...)
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
