package coord

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// hostileIDs need every escape a JSON string has: quotes, backslashes,
// control bytes, bytes that are not UTF-8, the separators encoding/json
// escapes on its own, and nothing at all.
var hostileIDs = []string{`quo"te`, `back\slash\\`, "ctl\x00\x01\n\r\t\x1f\x7f", "\xff\xfe\xc0", "sep\u2028\u2029<&>", ""}

// fuzzServer is a coordinator whose every table holds something — a
// cached record, a failed point, a queued one — and whose cache,
// recovered from a journal no coordinator wrote, is also keyed by the
// hostile IDs, so the hand-assembled replies have them to encode.
func fuzzServer(f *testing.F) (*Server, sweep.Plan) {
	f.Helper()
	checkpoint := filepath.Join(f.TempDir(), "coord.jsonl")
	var journal []byte
	for _, id := range hostileIDs {
		line, err := sweep.EncodeLine(record(id, 1))
		if err != nil {
			f.Fatal(err)
		}
		journal = append(journal, line...)
	}
	if err := os.WriteFile(checkpoint, journal, 0o644); err != nil {
		f.Fatal(err)
	}
	clock := newFakeClock()
	s, err := NewServer(ServerOptions{Checkpoint: checkpoint, LeaseTTL: time.Second, MaxRetries: 0, Now: clock.Now})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	plan := testPlan(f, 3)
	if _, err := s.SubmitPlan(PlanRequest{Name: plan.Name, Points: plan.Wire()}); err != nil {
		f.Fatal(err)
	}
	g := s.Lease(LeaseRequest{Worker: "w"})
	if _, err := s.SubmitResult(ResultRequest{ID: g.Point.ID, Token: g.Token, Record: record(g.Point.ID, 2)}); err != nil {
		f.Fatal(err)
	}
	s.Lease(LeaseRequest{Worker: "crashy"})
	clock.Advance(2 * time.Second) // with no retries, the second point is now failed
	return s, plan
}

// postBody drives one body through the handler and holds the reply to
// what every reply owes: a 200, a 400 or one of the also statuses, and
// valid JSON either way.
func postBody(t *testing.T, h http.Handler, path string, body []byte, also ...int) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if w.Code != http.StatusOK && w.Code != http.StatusBadRequest && !slices.Contains(also, w.Code) {
		t.Fatalf("POST %s: status %d\n%s", path, w.Code, w.Body)
	}
	if !json.Valid(w.Body.Bytes()) {
		t.Fatalf("POST %s: reply is not JSON:\n%s", path, w.Body)
	}
	return w
}

// idsBody is {name, ids}: a digest-form plan and a results request both.
func idsBody(ids []string) []byte {
	b, _ := json.Marshal(map[string]any{"name": "seed", "ids": ids})
	return b
}

func addBodies(f *testing.F, plan sweep.Plan) {
	f.Helper()
	megabyte := make([]string, 1<<16) // 64 Ki 16-digit IDs: a megabyte of them
	for i := range megabyte {
		megabyte[i] = strconv.FormatUint(uint64(i)|1<<60, 16)
	}
	full, _ := json.Marshal(PlanRequest{Name: "full", Points: plan.Wire()})
	skewed := bytes.Replace(full, []byte(`"Seed":`), []byte(`"Seed":1`), 1)
	for _, seed := range [][]byte{
		idsBody(plan.IDs()), idsBody(append(plan.IDs(), plan.IDs()...)), idsBody(hostileIDs), idsBody(megabyte), idsBody(nil),
		full, skewed, full[:len(full)/2],
		[]byte(`{"ids":["\ud800","\u0000","a\"b\\c"],"points":null}`),
		[]byte(`{"ids":"not an array"}`), []byte(`{"ids":[1,2]}`), []byte(`{"ids":[["nested"]]}`),
		[]byte(`{"points":[{"id":"x","label":"y","config":{"Lambda":1e999}}]}`),
		[]byte(`[]`), []byte(`null`), []byte(`{}`), []byte(``), []byte("{\"ids\":[\"\xff\"]}"),
		[]byte(strings.Repeat(`{"ids":`, 1000)),
	} {
		f.Add(seed)
	}
}

// FuzzResultsRequest hardens /v1/results, whose reply is assembled by
// hand: any body gets a 400 or a 200, never a panic; the reply is valid
// JSON of exactly its Content-Length, which the client's walk reads as
// encoding/json does; and when the body was a request, the reply
// accounts for every ID in it, however it has to be escaped.
func FuzzResultsRequest(f *testing.F) {
	s, plan := fuzzServer(f)
	h := s.Handler()
	addBodies(f, plan)
	f.Fuzz(func(t *testing.T, body []byte) {
		w := postBody(t, h, "/v1/results", body)
		var req ResultsRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return // a body with trailing bytes may still be served; a served one is checked above
		}
		if w.Code != http.StatusOK {
			t.Fatalf("a decodable request got status %d: %s", w.Code, w.Body)
		}
		if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
			t.Fatalf("Content-Length %q for a %d-byte reply", cl, w.Body.Len())
		}
		var got, walked ResultsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatalf("reply does not decode: %v\n%s", err, w.Body)
		}
		if decodeFast(w.Body.Bytes(), &walked) && !reflect.DeepEqual(walked, got) {
			t.Fatalf("the reply walks to\n %+v\nencoding/json reads\n %+v", walked, got)
		}
		pending := map[string]bool{}
		for _, id := range got.Pending {
			pending[id] = true
		}
		for _, id := range req.IDs {
			_, cached := got.Records[id]
			_, failed := got.Failed[id]
			if !cached && !failed && !pending[id] {
				t.Fatalf("ID %q is in none of records, failed, pending:\n%s", id, w.Body)
			}
		}
	})
}

// FuzzPlanRequest hardens /v1/plan, the one body that carries
// definitions: any body gets a 400 or a 200, never a panic, the reply is
// valid JSON, and an accepted submission accounts for every point.
func FuzzPlanRequest(f *testing.F) {
	s, plan := fuzzServer(f)
	h := s.Handler()
	addBodies(f, plan)
	f.Fuzz(func(t *testing.T, body []byte) {
		w := postBody(t, h, "/v1/plan", body)
		if w.Code != http.StatusOK {
			return
		}
		var got PlanResponse
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatalf("reply does not decode: %v\n%s", err, w.Body)
		}
		if got.Total != got.Done+got.Queued+got.Failed+len(got.Unknown) {
			t.Fatalf("reply does not add up: %+v", got)
		}
	})
}

// FuzzResultRequest hardens /v1/result, the body that carries a record
// into the journal: any body gets a 200, 400, 404, 409 or 413 — never a
// 500 or a panic — with a JSON reply; the checkpoint journal grows by one
// line exactly when the reply says "accepted"; and a body the
// layout-checked walk reads, it reads as encoding/json does.
func FuzzResultRequest(f *testing.F) {
	s, plan := fuzzServer(f)
	h := s.Handler()
	ids := plan.IDs()
	ran := sweep.NewRecord(ids[2], core.RunPointFunc(plan.Points[2], core.Run))
	worker, _ := json.Marshal(ResultRequest{ID: ids[2], Token: "t", Record: ran})
	reordered := bytes.Replace(worker, []byte(`"record":{"id":"`+ids[2]+`","label":"pt",`), []byte(`"record":{"label":"pt","id":"`+ids[2]+`",`), 1)
	if bytes.Equal(reordered, worker) || !decodeFast(worker, new(ResultRequest)) || decodeFast(reordered, new(ResultRequest)) {
		f.Fatalf("want a worker body the walk reads and a reordered one it declines:\n%s\n%s", worker, reordered)
	}
	for _, seed := range [][]byte{
		worker, worker[:len(worker)/2], append(worker, "trailing"...), append(worker, '\n'), reordered,
		bytes.Replace(worker, []byte(`{"id":`), []byte(`{"token":"t","id":`), 1),
		[]byte(strings.Repeat(`{"record":`, 1000)),
		[]byte(`{"id":"` + ids[2] + `","record":{"id":"other"}}`),
		[]byte(`{"id":"feedfacefeedface","token":"t","record":{}}`),
		[]byte(`{"id":"quo\"te","record":{"id":"quo\"te","results":{"MeanLatency":1,"Delivered":100}}}`),
		[]byte(`{}`), []byte(`null`), []byte(``),
	} {
		f.Add(seed)
	}
	for _, id := range ids {
		for _, latency := range []float64{1, 2, 12.5} {
			body, _ := json.Marshal(ResultRequest{ID: id, Token: "t", Record: record(id, latency)})
			f.Add(body)
		}
	}
	lines := func(t *testing.T) int {
		b, err := os.ReadFile(s.opt.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(b, []byte("\n"))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		before := lines(t)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/result", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d\n%s", w.Code, w.Body)
		}
		var resp ResultResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("reply is not JSON: %v\n%s", err, w.Body)
		}
		if grew := lines(t) - before; grew != 0 && (grew != 1 || resp.Status != "accepted") || resp.Status == "accepted" && grew != 1 {
			t.Fatalf("the journal grew by %d lines on a %d %q reply", grew, w.Code, w.Body)
		}
		var walked, want ResultRequest
		if decodeFast(body, &walked) {
			if err := json.Unmarshal(body, &want); err != nil || !reflect.DeepEqual(walked, want) {
				t.Fatalf("the body walks to\n %+v\nencoding/json reads\n %+v, %v", walked, want, err)
			}
		}
	})
}

// workerBodies are lease and renew bodies: every hostile string as each
// field, and the shapes a JSON decoder must refuse.
func workerBodies(f *testing.F, fields ...string) {
	f.Helper()
	for _, v := range hostileIDs {
		for _, field := range fields {
			b, _ := json.Marshal(map[string]string{field: v})
			f.Add(b)
		}
	}
	for _, seed := range [][]byte{
		[]byte(`{}`), []byte(`null`), []byte(``), []byte(`[]`), []byte(`"w"`), []byte(`{"worker":1}`),
		[]byte(`{"id":"a","id":"b"}`), []byte(`{"ID":"a","Token":"b"}`), []byte(`{"worker":"w"} trailing`),
		[]byte(`{"worker":"\ud800"}`), []byte("{\"worker\":\"\xff\"}"), []byte(strings.Repeat(`{"worker":`, 1000)),
	} {
		f.Add(seed)
	}
}

// FuzzLeaseRequest hardens /v1/lease: any body gets a 200 when
// encoding/json reads it as a LeaseRequest and a 400 (413 past
// MaxRequestBytes) when not, never a 5xx or a panic. The hand-assembled
// reply is valid JSON of exactly its Content-Length, which decodeFast
// reads as encoding/json does; a reply that carries a point carries a
// verifiable definition, leased under the worker name the body gave.
func FuzzLeaseRequest(f *testing.F) {
	s, _ := fuzzServer(f)
	h := s.Handler()
	workerBodies(f, "worker")
	f.Fuzz(func(t *testing.T, body []byte) {
		w := postBody(t, h, "/v1/lease", body, http.StatusRequestEntityTooLarge)
		var req LeaseRequest
		if err := json.Unmarshal(body, &req); (err == nil) != (w.Code == http.StatusOK) {
			t.Fatalf("status %d for a body encoding/json reads with error %v", w.Code, err)
		}
		if w.Code != http.StatusOK {
			return
		}
		if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
			t.Fatalf("Content-Length %q for a %d-byte reply", cl, w.Body.Len())
		}
		var got, walked LeaseResponse
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatalf("reply does not decode: %v\n%s", err, w.Body)
		}
		if decodeFast(w.Body.Bytes(), &walked) && !reflect.DeepEqual(walked, got) {
			t.Fatalf("the reply walks to\n %+v\nencoding/json reads\n %+v", walked, got)
		}
		if got.Point == nil {
			return
		}
		if err := got.Point.Verify(); err != nil || got.Token == "" {
			t.Fatalf("leased %+v, token %q: %v", got.Point, got.Token, err)
		}
		if req.Worker == "" {
			req.Worker = "anonymous"
		}
		if worker, token, held := s.leases.Holder(got.Point.ID); !held || worker != req.Worker || token != got.Token {
			t.Fatalf("point %s held=%v by %q under %q; want %q under %q", got.Point.ID, held, worker, token, req.Worker, got.Token)
		}
	})
}

// FuzzRenewRequest hardens /v1/renew, the worker heartbeat: any body gets
// a 200 exactly when encoding/json reads it as the live lease's ID and
// token, a 409 when it names anything else, and a 400 (413 past
// MaxRequestBytes) when it does not decode — never a 5xx or a panic —
// with a JSON reply.
func FuzzRenewRequest(f *testing.F) {
	s, _ := fuzzServer(f)
	h := s.Handler()
	live := s.Lease(LeaseRequest{Worker: "w"})
	if live.Point == nil {
		f.Fatal("fuzzServer queued no point to lease")
	}
	workerBodies(f, "id", "token")
	for _, req := range []RenewRequest{{live.Point.ID, live.Token}, {live.Point.ID, ""}, {"", live.Token}, {live.Token, live.Point.ID}} {
		b, _ := json.Marshal(req)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := postBody(t, h, "/v1/renew", body, http.StatusConflict, http.StatusRequestEntityTooLarge)
		var req RenewRequest
		want := http.StatusConflict
		switch err := json.Unmarshal(body, &req); {
		case err != nil:
			want = http.StatusBadRequest
		case req.ID == live.Point.ID && req.Token == live.Token:
			want = http.StatusOK
		}
		if w.Code != want {
			t.Fatalf("status %d, want %d: %s", w.Code, want, w.Body)
		}
	})
}
