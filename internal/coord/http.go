package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/sweep"
)

// The wire protocol is JSON over POST (reads included: batch lookups
// carry bodies), plus two GET observability endpoints. Every error
// response is {"error": "..."} with a meaningful status code; 409 marks
// the two coordination-specific rejections (lost lease on renew,
// conflicting result on submit) that clients must handle distinctly.

// PlanRequest is the body of POST /v1/plan. It has a digest form
// ({name, ids}: what Client sends first), the same with the definitions
// the coordinator reported unknown attached, and a full form ({name,
// points}), in which the points are the plan.
type PlanRequest struct {
	// Name labels the plan in coordinator logs.
	Name string `json:"name"`
	// IDs are the plan's point IDs (sweep.Plan.IDs), in plan order.
	IDs []string `json:"ids,omitempty"`
	// Points are definitions in wire form (sweep.PlanPoint), for the IDs
	// the coordinator does not know yet; without IDs, the whole plan.
	Points []sweep.PlanPoint `json:"points,omitempty"`
}

// PlanResponse reports the submission outcome per point category.
type PlanResponse struct {
	// Total = Done + Queued + Failed + len(Unknown).
	Total int `json:"total"`
	// Done points already had cached records (served without simulation).
	Done int `json:"done"`
	// Queued points await (or are under) a worker lease — newly queued
	// and already-known alike.
	Queued int `json:"queued"`
	// Failed points previously exhausted their lease retries.
	Failed int `json:"failed"`
	// Unknown are the IDs the coordinator holds neither a record nor a
	// definition for and the request did not define. While there are any
	// the submission has registered nothing (Server.SubmitPlan).
	Unknown []string `json:"unknown,omitempty"`
}

// LeaseRequest is the body of POST /v1/lease.
type LeaseRequest struct {
	// Worker is the requester's self-reported name, for the /statusz
	// lease table.
	Worker string `json:"worker"`
}

// LeaseResponse carries a work assignment, or idleness.
type LeaseResponse struct {
	// Point is the leased point; nil when nothing is queued.
	Point *sweep.PlanPoint `json:"point,omitempty"`
	// Token identifies this lease in Renew and result submission.
	Token string `json:"token,omitempty"`
	// TTLMs is the lease duration in milliseconds; workers heartbeat at
	// a fraction of it.
	TTLMs int64 `json:"ttl_ms,omitempty"`
	// Drained is set on idle responses once the coordinator has had work
	// and none of it is queued or leased anywhere — a batch fleet can exit
	// (worker exit=drain). See Status.Drained.
	Drained bool `json:"drained,omitempty"`
}

// RenewRequest is the body of POST /v1/renew (the worker heartbeat).
type RenewRequest struct {
	ID    string `json:"id"`
	Token string `json:"token"`
}

// ResultRequest is the body of POST /v1/result.
type ResultRequest struct {
	// ID is the completed point; Token the lease it ran under (advisory:
	// late results are accepted, see Server.SubmitResult).
	ID    string `json:"id"`
	Token string `json:"token"`
	// Record is the completed record, exactly as a local sweep would
	// journal it.
	Record sweep.Record `json:"record"`
}

// ResultResponse acknowledges a submission: "accepted" for a new
// record, "duplicate" for an agreeing re-submission.
type ResultResponse struct {
	Status string `json:"status"`
}

// ResultsRequest is the body of POST /v1/results (batch cache lookup).
type ResultsRequest struct {
	IDs []string `json:"ids"`
}

// ResultsResponse partitions the requested IDs: cached records, failure
// reasons for retry-exhausted points, and IDs still pending.
type ResultsResponse struct {
	Records map[string]sweep.Record `json:"records"`
	Failed  map[string]string       `json:"failed,omitempty"`
	Pending []string                `json:"pending,omitempty"`
}

// httpError is an error with an HTTP status; handlers unwrap it to pick
// the response code (plain errors map to 500).
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// Handler returns the coordinator's HTTP API:
//
//	GET  /healthz     liveness ("ok")
//	GET  /statusz     Status JSON (counters + lease table)
//	POST /v1/plan     PlanRequest    -> PlanResponse
//	POST /v1/lease    LeaseRequest   -> LeaseResponse
//	POST /v1/renew    RenewRequest   -> {} | 409
//	POST /v1/result   ResultRequest  -> ResultResponse | 409 on conflict
//	POST /v1/results  ResultsRequest -> ResultsResponse
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, &httpError{http.StatusMethodNotAllowed, "GET only"})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, &httpError{http.StatusMethodNotAllowed, "GET only"})
			return
		}
		writeJSON(w, s.Status())
	})
	post(mux, "/v1/plan", s.SubmitPlan)
	post(mux, "/v1/lease", func(req LeaseRequest) (rawJSON, error) { return s.leaseJSON(req), nil })
	post(mux, "/v1/renew", func(req RenewRequest) (struct{}, error) { return struct{}{}, s.Renew(req) })
	post(mux, "/v1/result", s.SubmitResult)
	post(mux, "/v1/results", func(req ResultsRequest) (rawJSON, error) { return s.resultsJSON(req), nil })
	return mux
}

// MaxRequestBytes bounds a request body: a larger one gets a 413 and
// changes nothing. It is over eight times the largest body the tree
// sends, a -scale full figure plan with its definitions (134 KB, Fig. 7;
// TestLargestPlanUploadFitsTheCoordinator in cmd/figures).
const MaxRequestBytes = 8 << 20

// post registers a JSON POST endpoint: read the body whole (413 past
// MaxRequestBytes), decode Req, call fn, encode Resp or the error.
func post[Req, Resp any](mux *http.ServeMux, path string, fn func(Req) (Resp, error)) {
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, &httpError{http.StatusMethodNotAllowed, "POST only"})
			return
		}
		var req Req
		var tooBig *http.MaxBytesError
		body, err := readBody(http.MaxBytesReader(w, r.Body, MaxRequestBytes), r.ContentLength)
		if err == nil {
			err = decode(body, &req)
		}
		if errors.As(err, &tooBig) {
			writeError(w, &httpError{http.StatusRequestEntityTooLarge, fmt.Sprintf("coord: request body over %d bytes", tooBig.Limit)})
			return
		}
		if err != nil {
			writeError(w, &httpError{http.StatusBadRequest, fmt.Sprintf("coord: bad request body: %v", err)})
			return
		}
		resp, err := fn(req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, resp)
	})
}

// rawJSON is a reply the server assembled itself around journal lines
// (leaseJSON, resultsJSON): written as it stands, under a Content-Length.
type rawJSON []byte

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// Best-effort: a failure here means the connection died.
	if raw, ok := v.(rawJSON); ok {
		w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
		_, _ = w.Write(raw)
		return
	}
	_ = json.NewEncoder(w).Encode(v)
}

// appendJSONString appends s as a JSON string. Point IDs and lease
// tokens are plain ASCII, which is a copy between quotes; anything else
// — a request may name any string as an ID — goes through encoding/json.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			quoted, _ := json.Marshal(s) // cannot fail on a string
			return append(buf, quoted...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// decodeOwn decodes JSON the server holds or produced itself — a journal
// line, or a reply assembled around them — for the typed face of the
// API. A line was encoded from a typed value here or decoded into one at
// recovery, so a failure is a bug, not bad input.
func decodeOwn[T any](b []byte) T {
	var v T
	if err := decode(b, &v); err != nil {
		panic(fmt.Sprintf("coord: undecodable journal-derived JSON: %v", err))
	}
	return v
}

// decode is json.Unmarshal, by decodeFast where it applies.
func decode(b []byte, v any) error {
	if decodeFast(b, v) {
		return nil
	}
	return json.Unmarshal(b, v)
}

// decodeFast reads what carries checkpoint lines — a record, a result
// submission, a /v1/results reply — by walking the layout json.Marshal
// and resultsJSON write (sweep.Walker), and reports whether b was in it.
// If not, v is untouched, for encoding/json to decode b into.
func decodeFast(b []byte, v any) bool {
	w := sweep.NewWalker(b)
	switch v := v.(type) {
	case *sweep.Record:
		return walked(&w, v, w.Record(""))
	case *ResultRequest:
		req := ResultRequest{ID: w.Str(`{"id":`), Token: w.Str(`,"token":`), Record: w.Record(`,"record":`)}
		w.Lit("}")
		return walked(&w, v, req)
	case *ResultsResponse:
		resp := ResultsResponse{Records: map[string]sweep.Record{}}
		w.Lit(`{"records":{`)
		w.Each("}", func() { resp.Records[w.Str("")] = w.Record(":") })
		if w.Opt(`,"failed":{`) {
			resp.Failed = map[string]string{}
			w.Each("}", func() { resp.Failed[w.Str("")] = w.Str(":") })
		}
		if w.Opt(`,"pending":[`) {
			resp.Pending = []string{}
			w.Each("]", func() { resp.Pending = append(resp.Pending, w.Str("")) })
		}
		w.Lit("}")
		return walked(&w, v, resp)
	}
	return false
}

// walked stores got in v if w read its input to the end.
func walked[T any](w *sweep.Walker, v *T, got T) bool {
	if w.End() {
		*v = got
	}
	return w.End()
}

// readBody reads a body whole into a buffer of its declared size. An
// unknown size (-1) or one past MaxRequestBytes is read as it comes, so
// a declared length never allocates more than arrives.
func readBody(r io.Reader, size int64) ([]byte, error) {
	if size < 0 || size > MaxRequestBytes {
		return io.ReadAll(r)
	}
	b := make([]byte, size)
	_, err := io.ReadFull(r, b)
	return b, err
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if he, ok := err.(*httpError); ok {
		status = he.status
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
