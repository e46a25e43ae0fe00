package coord

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// TestClientReusesConnections counts TCP connections on the server side
// over everything a fleet does — a 600-point RunPlan served by two
// workers, ten cached resubmissions, a heartbeat, a status read and a
// rejected call — and holds the total to the clients' connection caps.
// The transport returns a connection to its pool only once the reply
// was read to EOF, so this fails whenever do leaves part of a body
// behind: the newline after the JSON value and the chunked terminator of
// every reply too large for one write (23 connections against a cap of 3
// before do drained), Renew's unread {}, an error reply.
func TestClientReusesConnections(t *testing.T) {
	s, err := NewServer(ServerOptions{Checkpoint: filepath.Join(t.TempDir(), "coord.jsonl"), Now: time.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var dials atomic.Int64
	hs := httptest.NewUnstartedServer(s.Handler())
	hs.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()
	capped := func(conns int) *http.Client {
		tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
		t.Cleanup(tr.CloseIdleConnections)
		return &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	const workers, points, resubmits = 2, 600, 10
	submitter := &Client{URL: hs.URL, HTTP: capped(1), PollInterval: 2 * time.Millisecond}
	fleet := &Client{URL: hs.URL, HTTP: capped(workers)}

	plan := sweep.Plan{Name: "conns"}
	for i := 0; i < points; i++ {
		cfg := core.DefaultConfig(4, 2, 0.004)
		cfg.Seed = uint64(i + 1)
		plan.Points = append(plan.Points, core.Point{Label: fmt.Sprintf("p%d", i), Config: cfg})
	}

	// A heartbeat (its {} reply is never decoded), a rejected one (an error
	// reply) and a status read, on the workers' connections.
	if _, err := submitter.SubmitPlan(plan); err != nil {
		t.Fatal(err)
	}
	grant, err := fleet.Lease("heartbeat")
	if err != nil || grant.Point == nil {
		t.Fatalf("Lease = %+v, %v", grant, err)
	}
	if err := fleet.Renew(grant.Point.ID, grant.Token); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	var ae *APIError
	if err := fleet.Renew(grant.Point.ID, "stale"); !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict {
		t.Fatalf("Renew under a stale token = %v, want a 409 APIError", err)
	}
	if _, err := fleet.Status(); err != nil {
		t.Fatal(err)
	}
	res, err := fakeRun(grant.Point.Config)
	if err != nil {
		t.Fatal(err)
	}
	rec := sweep.NewRecord(grant.Point.ID, core.PointResult{Point: grant.Point.Point(), Results: res})
	if _, err := fleet.SubmitResult(grant.Point.ID, grant.Token, rec); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := &Worker{Client: fleet, Name: fmt.Sprintf("w%d", i), ExitOnDrain: true, IdlePoll: time.Millisecond, run: fakeRun}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := w.Run(ctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	for i := 0; i <= resubmits; i++ {
		if _, err := submitter.RunPlan(ctx, plan); err != nil {
			t.Fatalf("RunPlan %d: %v", i, err)
		}
	}
	wg.Wait()
	if st := s.Status(); st.ResultsAccepted != points || st.Plans != resubmits+2 {
		t.Fatalf("Status = %+v, want %d results accepted over %d plans", st, points, resubmits+2)
	}
	if got := dials.Load(); got > workers+1 {
		t.Fatalf("%d connections opened, want at most the clients' caps (%d + 1)", got, workers)
	}
}

// TestClientErrors: a reply that is not a 200 is an *APIError carrying
// its status and the coordinator's message from every call — Status
// included, which used to decode the error body into a zero Status and
// return nil — and Retryable separates what is worth another attempt
// (transport failures, 5xx) from what is definitive (4xx).
func TestClientErrors(t *testing.T) {
	for _, tc := range []struct {
		status    int
		body      string
		msg       string
		retryable bool
	}{
		{http.StatusBadRequest, `{"error":"bad plan"}`, "bad plan", false},
		{http.StatusNotFound, `{"error":"unknown point"}`, "unknown point", false},
		{http.StatusConflict, `{"error":"lease lost"}`, "lease lost", false},
		{http.StatusInternalServerError, `{"error":"journal full"}`, "journal full", true},
		{http.StatusBadGateway, `<html>proxy</html>`, "unexpected status", true},
	} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(tc.status)
			fmt.Fprintln(w, tc.body)
		}))
		c := NewClient(hs.URL)
		_, statusErr := c.Status()
		_, leaseErr := c.Lease("w")
		for call, err := range map[string]error{"Status": statusErr, "Lease": leaseErr, "Renew": c.Renew("id", "token")} {
			var ae *APIError
			if !errors.As(err, &ae) || ae.StatusCode != tc.status {
				t.Fatalf("%s against a %d reply = %v, want an *APIError with that status", call, tc.status, err)
			}
			if !strings.HasSuffix(ae.Msg, tc.msg) {
				t.Fatalf("%s against a %d reply: message %q, want %q", call, tc.status, ae.Msg, tc.msg)
			}
			if Retryable(err) != tc.retryable {
				t.Fatalf("%s: Retryable(%v) = %v, want %v", call, err, !tc.retryable, tc.retryable)
			}
		}
		hs.Close()
	}
	// Nothing listens here: a transport failure, which is worth retrying.
	if _, err := NewClient("http://127.0.0.1:1").Status(); err == nil || !Retryable(err) || errors.As(err, new(*APIError)) {
		t.Fatalf("Status against a dead coordinator = %v, want a retryable transport error", err)
	}
	if Retryable(nil) {
		t.Fatal("Retryable(nil) = true")
	}
}
