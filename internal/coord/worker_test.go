package coord

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

func TestBackoffBoundsAndJitter(t *testing.T) {
	bo := NewBackoff("w1")
	prevMax := time.Duration(0)
	for i := 0; i < 12; i++ {
		want := 100 * time.Millisecond << i
		if want > 5*time.Second {
			want = 5 * time.Second
		}
		d := bo.Next()
		lo, hi := want/2, want+want/2
		if d < lo || d >= hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", i, d, lo, hi)
		}
		if want == 5*time.Second {
			prevMax = d
		}
	}
	if prevMax == 0 {
		t.Fatal("backoff never reached its cap in 12 attempts")
	}
	bo.Reset()
	if d := bo.Next(); d >= 150*time.Millisecond {
		t.Fatalf("post-Reset delay %v, want back at the 100ms base", d)
	}
	// Distinct labels de-phase: the two sequences should not be identical.
	a, b := NewBackoff("w1"), NewBackoff("w2")
	same := true
	for i := 0; i < 4; i++ {
		if a.Next() != b.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("backoff jitter identical across worker names")
	}
}

// startServer spins up a coordinator on real time behind httptest and
// returns a client for it. _test.go files are outside the rngpurity
// contract, so time.Now is fine here.
func startServer(t *testing.T, ttl time.Duration, retries int) (*Server, *Client) {
	t.Helper()
	s, err := NewServer(ServerOptions{
		Checkpoint: filepath.Join(t.TempDir(), "coord.jsonl"),
		LeaseTTL:   ttl,
		MaxRetries: retries,
		Now:        time.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })
	c := NewClient(hs.URL)
	c.PollInterval = 10 * time.Millisecond
	return s, c
}

// TestFleetMatchesLocalRun is the end-to-end check: a plan served by a
// coordinator and completed by real Workers running the real engine must
// produce byte-for-byte the results of a direct local sweep.
func TestFleetMatchesLocalRun(t *testing.T) {
	plan := sweep.Plan{Name: "e2e"}
	for _, lambda := range []float64{0.002, 0.004, 0.006} {
		cfg := core.DefaultConfig(4, 2, lambda)
		cfg.WarmupMessages = 50
		cfg.MeasureMessages = 300
		plan.Points = append(plan.Points, core.Point{Label: "e2e", Config: cfg})
	}
	want := core.RunSweepFunc(plan.Points, 1, nil)

	s, c := startServer(t, 10*time.Second, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	workerDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		w := &Worker{Client: c, Name: "w" + string(rune('A'+i)), ExitOnDrain: true, IdlePoll: 10 * time.Millisecond}
		go func() {
			_, err := w.Run(ctx)
			workerDone <- err
		}()
	}
	got, err := c.RunPlan(ctx, plan)
	if err != nil {
		t.Fatalf("RunPlan: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-workerDone; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet results diverge from local sweep:\n got %+v\nwant %+v", got, want)
	}

	// Re-running the whole plan must be pure cache: no workers are alive,
	// yet the plan completes, and the accepted-results counter is frozen.
	st := s.Status()
	again, err := c.RunPlan(ctx, plan)
	if err != nil {
		t.Fatalf("cached RunPlan: %v", err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("cached results diverge")
	}
	st2 := s.Status()
	if st2.ResultsAccepted != st.ResultsAccepted {
		t.Fatalf("cache re-simulated: accepted %d -> %d", st.ResultsAccepted, st2.ResultsAccepted)
	}
}

func TestWorkerGracefulDrain(t *testing.T) {
	s, c := startServer(t, 10*time.Second, 3)
	plan := testPlan(t, 1)
	id := plan.IDs()[0]
	if _, err := c.SubmitPlan(plan); err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	w := &Worker{Client: c, Name: "drainer", IdlePoll: 5 * time.Millisecond,
		run: func(core.Config) (metrics.Results, error) {
			close(started)
			<-release
			return metrics.Results{MeanLatency: 7, Delivered: 100}, nil
		}}
	done := make(chan int, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		n, _ := w.Run(ctx)
		done <- n
	}()

	<-started
	cancel() // SIGTERM equivalent: arrives while the point is mid-simulation
	close(release)
	if n := <-done; n != 1 {
		t.Fatalf("drained worker completed %d points, want 1", n)
	}
	// The in-flight result reached the coordinator despite the cancel.
	res := s.Results(ResultsRequest{IDs: []string{id}})
	if rec, ok := res.Records[id]; !ok || rec.Results.MeanLatency != 7 {
		t.Fatalf("in-flight result lost on drain: %+v", res)
	}
}

func TestWorkerBacksOffWhenCoordinatorDown(t *testing.T) {
	// Nothing listens on this URL: every lease attempt is a transport
	// error, which the worker must absorb (backoff) instead of returning.
	c := NewClient("http://127.0.0.1:1")
	w := &Worker{Client: c, Name: "patient"}
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	start := time.Now()
	n, err := w.Run(ctx)
	if err != nil {
		t.Fatalf("worker returned transport error instead of retrying: %v", err)
	}
	if n != 0 {
		t.Fatalf("completed %d points against a dead coordinator", n)
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Fatalf("worker gave up after %v; want it to keep retrying until ctx end", elapsed)
	}
}

func TestWorkerStallLosesLeaseButResultAccepted(t *testing.T) {
	s, c := startServer(t, 200*time.Millisecond, 3)
	plan := testPlan(t, 1)
	id := plan.IDs()[0]
	if _, err := c.SubmitPlan(plan); err != nil {
		t.Fatal(err)
	}

	// The stalled worker sits on its lease far past the TTL without
	// heartbeating (Stall happens before the heartbeat starts), so the
	// coordinator re-queues the point while the worker still computes.
	w := &Worker{Client: c, Name: "sloth", ExitOnDrain: true, IdlePoll: 10 * time.Millisecond,
		Stall: 700 * time.Millisecond,
		run: func(core.Config) (metrics.Results, error) {
			return metrics.Results{MeanLatency: 3, Delivered: 100}, nil
		}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if st.Expired == 0 {
		t.Fatalf("stall never tripped lease expiry: %+v", st)
	}
	res := s.Results(ResultsRequest{IDs: []string{id}})
	if rec, ok := res.Records[id]; !ok || rec.Results.MeanLatency != 3 {
		t.Fatalf("stalled worker's result not recorded: %+v", res)
	}
}

// TestDrainWorkersStartedBeforePlanWait is the regression test for the
// exit=drain early-quit race: a drain-mode fleet started *before* its plan
// (FIGURES.md's recipe) used to see an empty coordinator, take "nothing
// queued, nothing leased" for "drained", and exit — leaving RunPlan
// waiting on a fleet of zero. A coordinator that has never had work is
// idle, not drained: the workers must keep polling, then run the plan
// when it arrives, then exit.
func TestDrainWorkersStartedBeforePlanWait(t *testing.T) {
	s, c := startServer(t, 10*time.Second, 3)
	if g := s.Lease(LeaseRequest{Worker: "probe"}); g.Point != nil || g.Drained {
		t.Fatalf("lease from a coordinator that never had work = %+v, want idle and not drained", g)
	}
	if s.Status().Drained {
		t.Fatal("coordinator that never had work reports drained")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const workers = 3
	done := make(chan int, workers)
	for i := 0; i < workers; i++ {
		w := &Worker{Client: c, Name: fmt.Sprintf("early%d", i), ExitOnDrain: true, IdlePoll: time.Millisecond,
			run: func(core.Config) (metrics.Results, error) {
				return metrics.Results{MeanLatency: 5, Delivered: 100}, nil
			}}
		go func() {
			n, err := w.Run(ctx)
			if err != nil {
				t.Errorf("worker: %v", err)
			}
			done <- n
		}()
	}
	// Give every worker time for many idle polls against the empty
	// coordinator; none may take that for a drain.
	deadline := time.After(100 * time.Millisecond)
wait:
	for {
		select {
		case n := <-done:
			t.Fatalf("a drain worker exited (after %d points) before any plan was submitted", n)
		case <-deadline:
			break wait
		}
	}

	plan := testPlan(t, 4)
	if _, err := c.RunPlan(ctx, plan); err != nil {
		t.Fatalf("RunPlan with an early-started fleet: %v", err)
	}
	total := 0
	for i := 0; i < workers; i++ {
		total += <-done // every worker exits once the plan has drained
	}
	if total != len(plan.Points) {
		t.Fatalf("fleet completed %d points, want %d", total, len(plan.Points))
	}
	if !s.Status().Drained {
		t.Fatal("coordinator not drained after its only plan completed")
	}
}
