package coord

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// hostileIDs need every escape a JSON string has: quotes, backslashes,
// control bytes, bytes that are not UTF-8, the separators encoding/json
// escapes on its own, and nothing at all.
var hostileIDs = []string{`quo"te`, `back\slash\\`, "ctl\x00\x01\n\r\t\x1f\x7f", "\xff\xfe\xc0", "sep\u2028\u2029<&>", ""}

// fuzzHandler is a coordinator whose every table holds something — a
// cached record, a failed point, a queued one — and whose cache,
// recovered from a journal no coordinator wrote, is also keyed by the
// hostile IDs, so the hand-assembled replies have them to encode.
func fuzzHandler(f *testing.F) (http.Handler, sweep.Plan) {
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
	return s.Handler(), plan
}

// postBody drives one body through the handler and holds the reply to
// what every reply owes: a 200 or a 400, and valid JSON either way.
func postBody(t *testing.T, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if w.Code != http.StatusOK && w.Code != http.StatusBadRequest {
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
// JSON of exactly its Content-Length; and when the body was a request,
// the reply accounts for every ID in it, however it has to be escaped.
func FuzzResultsRequest(f *testing.F) {
	h, plan := fuzzHandler(f)
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
		var got ResultsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatalf("reply does not decode: %v\n%s", err, w.Body)
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
	h, plan := fuzzHandler(f)
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
