package coord

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// Worker is the pull loop behind swsim -worker: lease a point, simulate
// it through the standard sweep machinery (panic-recovering, exactly
// what a local sweep pool runs), submit the record, repeat. Coordinator
// unavailability is absorbed by jittered exponential backoff; a held
// lease is heartbeat-renewed at a third of its TTL while the point
// runs.
//
// Shutdown is graceful by contract: cancelling the context (SIGTERM in
// the CLI) stops the worker from taking new leases, but a point already
// running is finished and its result submitted — killing a drain-phase
// worker loses at most lease-renewal politeness, never computed work.
// SIGKILL is the impolite case the coordinator's lease expiry exists
// for.
type Worker struct {
	// Client connects to the coordinator (required).
	Client *Client
	// Name identifies the worker in the coordinator's lease table.
	Name string
	// IdlePoll is the wait between lease requests when the coordinator
	// has no queued work; 0 means 500ms.
	IdlePoll time.Duration
	// ExitOnDrain makes Run return once the coordinator reports itself
	// drained (no queued or leased work anywhere). For batch fleets
	// started after plan submission; the default (false) keeps polling
	// forever, serving any plan that arrives later.
	ExitOnDrain bool
	// Stall injects a pause between leasing a point and simulating it —
	// a chaos knob for exercising lease expiry and reassignment (the
	// coordinator-smoke CI job stalls its victim past the TTL before
	// SIGKILLing it). 0 (the default) disables.
	Stall time.Duration
	// EngineWorkers sets Config.Workers for each simulated point
	// (execution detail, not point identity); 0 keeps engines serial —
	// the right default when several worker processes share a host.
	EngineWorkers int
	// Log, when non-nil, receives one-line progress notes.
	Log io.Writer

	// run substitutes the simulator in tests; nil uses core.Run.
	run func(core.Config) (metrics.Results, error)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		fmt.Fprintf(w.Log, format+"\n", args...)
	}
}

// Run executes the worker loop until ctx is cancelled (graceful drain)
// or, with ExitOnDrain, until the coordinator reports no remaining
// work. It returns the number of points completed.
func (w *Worker) Run(ctx context.Context) (completed int, err error) {
	if w.Client == nil {
		return 0, fmt.Errorf("coord: worker needs a Client")
	}
	name := w.Name
	if name == "" {
		name = "worker"
	}
	idle := w.IdlePoll
	if idle <= 0 {
		idle = 500 * time.Millisecond
	}
	bo := NewBackoff(name)
	for {
		if ctx.Err() != nil {
			w.logf("worker %s: drained after %d points (shutdown requested)", name, completed)
			return completed, nil
		}
		grant, err := w.Client.Lease(name)
		if err != nil {
			if !Retryable(err) {
				return completed, err
			}
			d := bo.Next()
			w.logf("worker %s: coordinator unavailable: %v (backing off %v)", name, err, d.Round(time.Millisecond))
			if !sleepCtx(ctx, d) {
				return completed, nil
			}
			continue
		}
		bo.Reset()
		if grant.Point == nil {
			if grant.Drained && w.ExitOnDrain {
				w.logf("worker %s: coordinator drained; exiting after %d points", name, completed)
				return completed, nil
			}
			if !sleepCtx(ctx, idle) {
				return completed, nil
			}
			continue
		}
		if w.runPoint(ctx, name, grant) {
			completed++
		}
	}
}

// runPoint simulates one leased point and submits its record, reporting
// whether a record was delivered (accepted or duplicate).
func (w *Worker) runPoint(ctx context.Context, name string, grant LeaseResponse) bool {
	pp := *grant.Point
	if err := pp.Verify(); err != nil {
		// Version skew between this worker and the coordinator: refuse
		// the point rather than cache a result under a wrong identity.
		// The lease expires and the point goes to a compatible worker.
		w.logf("worker %s: refusing point: %v", name, err)
		return false
	}
	if w.Stall > 0 {
		w.logf("worker %s: stalling %v on %s (chaos knob)", name, w.Stall, pp.ID)
		if !sleepCtx(ctx, w.Stall) {
			return false
		}
	}

	// Heartbeat at a third of the lease TTL while the point runs. A
	// failed renewal means the lease expired and moved on; the result is
	// still submitted (and accepted as late) — the engine is
	// deterministic, so the work is not wasted unless another worker
	// finished first, in which case submission reports a duplicate.
	stop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := time.Duration(grant.TTLMs) * time.Millisecond / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := w.Client.Renew(pp.ID, grant.Token); err != nil && !Retryable(err) {
					w.logf("worker %s: lease on %s lost: %v (finishing anyway)", name, pp.ID, err)
					return
				}
			}
		}
	}()

	w.logf("worker %s: running %s (%s)", name, pp.ID, pp.Label)
	cfg := pp.Config
	cfg.Workers = w.EngineWorkers // execution detail; not part of point identity
	run := w.run
	if run == nil {
		run = core.Run
	}
	// RunPointFunc is what a local sweep pool runs per point, panic recovery
	// included: a crashing config becomes PointResult.Err, journalled like
	// any deterministic failure, instead of killing the worker process.
	pr := core.RunPointFunc(core.Point{Label: pp.Label, Config: cfg}, run)
	close(stop)
	<-hbDone

	// Submission must survive a graceful drain: the context may already
	// be cancelled (SIGTERM mid-point), but the computed result should
	// still reach the coordinator, so retries here use their own bounded
	// budget instead of ctx.
	rec := sweep.NewRecord(pp.ID, pr)
	bo := NewBackoff(name + "/submit")
	for attempt := 0; ; attempt++ {
		resp, err := w.Client.SubmitResult(pp.ID, grant.Token, rec)
		if err == nil {
			w.logf("worker %s: %s %s", name, pp.ID, resp.Status)
			return true
		}
		if !Retryable(err) {
			w.logf("worker %s: result for %s rejected: %v", name, pp.ID, err)
			return false
		}
		if attempt >= 10 {
			w.logf("worker %s: giving up submitting %s: %v (lease will expire and re-queue it)", name, pp.ID, err)
			return false
		}
		time.Sleep(bo.Next())
	}
}
