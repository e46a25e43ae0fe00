package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// collect folds a plan's point results into the sample: statistics in plan
// order, simulated cycles summed, errored points counted failed.
func (s *sample) collect(prs []core.PointResult) {
	s.results = make([]metrics.Results, len(prs))
	for i, pr := range prs {
		if pr.Err != nil {
			s.fail(fmt.Errorf("point %q: %w", pr.Label, pr.Err))
			continue
		}
		s.results[i] = pr.Results
		s.cycles += pr.Results.Cycles
	}
}

// withDeadline runs f under the hard deadline. On expiry it reports false
// and abandons f's goroutine: the process is about to report failure and
// exit, which is the point — a stuck pool or fleet must not hang it.
func withDeadline(f func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	t := time.NewTimer(hardDeadlineS * time.Second)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// freshJournal returns a journal path under dir that does not exist yet.
func freshJournal(dir, name string) (string, error) {
	path := filepath.Join(dir, name+".jsonl")
	for _, p := range []string{path, path + ".plan"} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return "", err
		}
	}
	return path, nil
}

// planSetup is the set-up of a sweep workload: build the plan, derive the
// point IDs, open a fresh checkpoint journal.
func planSetup(w workload, seed uint64, dir string) (sweep.Plan, float64, error) {
	path, err := freshJournal(dir, "setup")
	if err != nil {
		return sweep.Plan{}, 0, err
	}
	t0 := time.Now()
	plan := w.plan(seed)
	_ = plan.IDs()
	j, err := sweep.OpenJournal(path)
	setupS := time.Since(t0).Seconds()
	if err != nil {
		return plan, 0, err
	}
	return plan, setupS, j.Close()
}

// runSweep is one untraced iteration of a sweep workload: the plan through
// sweep.Run on a width-wide pool with a fresh checkpoint journal.
func runSweep(w workload, seed uint64, dir string) sample {
	var s sample
	runtime.GC()
	plan, setupS, err := planSetup(w, seed, dir)
	if err != nil {
		s.fail(err)
		return s
	}
	s.setupS = setupS
	path, err := freshJournal(dir, w.name)
	if err != nil {
		s.fail(err)
		return s
	}
	runtime.GC()

	var prs []core.PointResult
	t0 := time.Now()
	finished := withDeadline(func() {
		prs, err = sweep.Run(plan, sweep.Options{Workers: width(), Checkpoint: path})
	})
	s.wallS = time.Since(t0).Seconds()
	switch {
	case !finished:
		s.failed, s.err = len(plan.Points), errDeadline
	case err != nil:
		s.failed, s.err = len(plan.Points), err
	default:
		s.collect(prs)
	}
	return s
}

// runTracedSweep mirrors sweep.Run from outside so that every point is a
// span: point IDs, a fresh journal, a width-wide pool whose workers run
// points through core.RunPointFunc with a timed core.Run, and a serialised
// completion callback appending each record to the journal.
func runTracedSweep(w workload, seed uint64, dir string, tr *tracer) sample {
	var s sample
	path, err := freshJournal(dir, w.name)
	if err != nil {
		s.fail(err)
		return s
	}
	setup := tr.begin("setup", 0)
	plan := w.plan(seed)
	ids := plan.IDs()
	journal, err := sweep.OpenJournal(path)
	s.setupS = tr.end(setup).Seconds()
	if err != nil {
		s.fail(err)
		return s
	}
	defer journal.Close()
	runtime.GC()

	run := tr.begin("run", 0)
	timedRun := func(c core.Config) (metrics.Results, error) {
		id := tr.begin("sweep.point", run)
		defer tr.end(id)
		return core.Run(c)
	}
	prs := make([]core.PointResult, len(plan.Points))
	var journalErr error
	finished := withDeadline(func() {
		var mu sync.Mutex // serialises completion, as core.RunSweepFunc does
		var wg sync.WaitGroup
		work := make(chan int)
		for i := 0; i < width(); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					prs[i] = core.RunPointFunc(plan.Points[i], timedRun)
					mu.Lock()
					t0 := time.Now()
					err := journal.Append(sweep.NewRecord(ids[i], prs[i]))
					tr.observe("sweep.journal_append", time.Since(t0))
					if err != nil && journalErr == nil {
						journalErr = err
					}
					mu.Unlock()
				}
			}()
		}
		for i := range plan.Points {
			work <- i
		}
		close(work)
		wg.Wait()
	})
	s.wallS = tr.end(run).Seconds()
	switch {
	case !finished:
		s.failed, s.err = len(plan.Points), errDeadline
	case journalErr != nil:
		s.failed, s.err = len(plan.Points), journalErr
	default:
		s.collect(prs)
	}
	return s
}

// fleet is a coordinator behind httptest plus width in-process workers.
type fleet struct {
	srv     *coord.Server
	ts      *httptest.Server
	client  *coord.Client
	cancel  context.CancelFunc
	workers sync.WaitGroup
	conns   []*http.Transport
}

// startFleet opens the coordinator on a fresh journal, serves it over a
// loopback httptest server and starts the workers. Workers run WITHOUT
// ExitOnDrain — a drain-mode worker that polls before the plan arrives
// sees an empty queue and quits, leaving RunPlan waiting on nobody — and
// are cancelled by stop once the plan is done. tr, when non-nil, decorates
// the handler and both transports; spans hang under parent.
func startFleet(dir string, tr *tracer, parent int) (*fleet, error) {
	path, err := freshJournal(dir, "fleet")
	if err != nil {
		return nil, err
	}
	srv, err := coord.NewServer(coord.ServerOptions{Checkpoint: path, MaxRetries: -1, Now: time.Now})
	if err != nil {
		return nil, err
	}
	handler := srv.Handler()
	if tr != nil {
		handler = timedHandler(handler, tr)
	}
	f := &fleet{srv: srv, ts: httptest.NewServer(handler)}
	// One connection per worker plus one for the submitting client: the
	// load generator never holds more than width+1 connections.
	httpClient := func(conns int) *http.Client {
		t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
		f.conns = append(f.conns, t)
		var rt http.RoundTripper = t
		if tr != nil {
			rt = &timedTransport{inner: t, tr: tr, parent: parent}
		}
		return &http.Client{Transport: rt, Timeout: 30 * time.Second}
	}
	f.client = &coord.Client{URL: f.ts.URL, HTTP: httpClient(1), PollInterval: fleetClientPollMs * time.Millisecond}
	workerHTTP := httpClient(width())
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < width(); i++ {
		w := &coord.Worker{
			Client:   &coord.Client{URL: f.ts.URL, HTTP: workerHTTP},
			Name:     fmt.Sprintf("bench-w%d", i),
			IdlePoll: fleetIdlePollMs * time.Millisecond,
		}
		f.workers.Add(1)
		go func() {
			defer f.workers.Done()
			// The worker's only non-nil error is a definitive coordinator
			// rejection; the plan then never completes and the run phase
			// reports it through the deadline.
			_, _ = w.Run(ctx)
		}()
	}
	return f, nil
}

// stop cancels the workers, waits for them (bounded by the hard deadline)
// and shuts the server down; it reports whether every worker exited.
func (f *fleet) stop() (bool, error) {
	f.cancel()
	exited := withDeadline(f.workers.Wait)
	for _, t := range f.conns {
		t.CloseIdleConnections()
	}
	f.ts.Close()
	return exited, f.srv.Close()
}

// fleetStats is what a fleet iteration reports beyond the sample.
type fleetStats struct {
	firstPassS, cachedS float64
	status              coord.Status
}

// runFleet is one iteration of fleet-tiny: the plan through Client.RunPlan
// against the fleet (the write path), then fleetResubmits resubmissions of
// the same plan, all served from the digest cache (the read path). The
// coordinator must have accepted exactly one result per point after the
// first pass and none during the resubmits.
func runFleet(w workload, seed uint64, dir string, tr *tracer) (sample, fleetStats) {
	var s sample
	var fs fleetStats
	runtime.GC()
	// Set-up: plan build, point IDs, coordinator open, HTTP server and
	// worker start.
	setup := tr.begin("setup", 0)
	t0 := time.Now()
	plan := w.plan(seed)
	_ = plan.IDs()
	f, err := startFleet(dir, tr, setup)
	s.setupS = time.Since(t0).Seconds()
	tr.end(setup)
	if err != nil {
		s.fail(err)
		return s, fs
	}
	runtime.GC()

	ctx, cancel := context.WithTimeout(context.Background(), hardDeadlineS*time.Second)
	defer cancel()
	run := tr.begin("run", 0)
	t0 = time.Now()
	prs, err := f.client.RunPlan(ctx, plan)
	fs.firstPassS = time.Since(t0).Seconds()
	if err == nil {
		err = f.checkAccepted(len(plan.Points))
	}
	for i := 0; err == nil && i < fleetResubmits; i++ {
		var again []core.PointResult
		if again, err = f.client.RunPlan(ctx, plan); err == nil && len(again) != len(prs) {
			err = fmt.Errorf("fleet: cached resubmit %d returned %d results, want %d", i, len(again), len(prs))
		}
	}
	s.wallS = time.Since(t0).Seconds()
	fs.cachedS = s.wallS - fs.firstPassS
	tr.end(run)
	if err == nil {
		err = f.checkAccepted(len(plan.Points))
	}
	if err == nil {
		fs.status, err = f.client.Status()
	}
	exited, stopErr := f.stop()
	switch {
	case err != nil:
		s.failed, s.err = len(plan.Points), err
	case !exited:
		s.failed, s.err = len(plan.Points), fmt.Errorf("fleet: workers did not exit after cancel: %w", errDeadline)
	case stopErr != nil:
		s.failed, s.err = len(plan.Points), stopErr
	default:
		s.collect(prs)
	}
	return s, fs
}

// checkAccepted asserts the coordinator has accepted exactly want results:
// one per point after the first pass, unchanged by cached resubmits.
func (f *fleet) checkAccepted(want int) error {
	st, err := f.client.Status()
	if err != nil {
		return err
	}
	if st.ResultsAccepted != uint64(want) {
		return fmt.Errorf("fleet: results_accepted = %d, want %d", st.ResultsAccepted, want)
	}
	return nil
}
