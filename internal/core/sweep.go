package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/metrics"
)

// Point is one labelled simulation configuration inside a sweep.
type Point struct {
	// Label identifies the point in reports (e.g. "det V=4 M=32 nf=3
	// λ=0.006").
	Label string
	// Config is the full simulation configuration.
	Config Config
}

// PointResult pairs a sweep point with its outcome.
type PointResult struct {
	Point
	Results metrics.Results
	Err     error
}

// RunSweepFunc executes every point, fanning out over a worker pool. Each
// engine instance is single-goroutine and deterministic, so results are
// identical to serial execution regardless of worker count. workers <= 0
// uses GOMAXPROCS. A point that panics is reported through its
// PointResult.Err; it never takes down the pool or the other points.
//
// done (when non-nil) is invoked once per point as it finishes, with the
// point's index into points and its result. Calls to done are serialized
// (never concurrent), but arrive in completion order, not index order — the
// sweep subsystem (internal/sweep: named plans, checkpoint/resume,
// saturation search) uses this to journal each result the moment it exists,
// so an interrupted sweep loses at most the points in flight.
func RunSweepFunc(points []Point, workers int, done func(int, PointResult)) []PointResult {
	return runSweep(points, workers, Run, done)
}

// runSweep is RunSweepFunc with the per-point runner injected for testing.
func runSweep(points []Point, workers int, run func(Config) (metrics.Results, error), done func(int, PointResult)) []PointResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	var doneMu sync.Mutex
	exec := func(i int) PointResult {
		res, err := runPointSafe(points[i].Config, run)
		r := PointResult{Point: points[i], Results: res, Err: err}
		if done != nil {
			doneMu.Lock()
			done(i, r)
			doneMu.Unlock()
		}
		return r
	}
	results := make([]PointResult, len(points))
	if workers <= 1 {
		for i := range points {
			results[i] = exec(i)
		}
		return results
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = exec(i)
			}
		}()
	}
	for i := range points {
		work <- i
	}
	close(work)
	wg.Wait()
	return results
}

// RunPointFunc executes one point with the pool's panic recovery but no
// pool: a crashing configuration becomes PointResult.Err instead of a
// process death. It is the per-point primitive behind RunSweepFunc,
// exported for callers that schedule points one at a time — the sweep
// coordinator's workers lease single points and must survive a
// poisonous one exactly like a local pool does. run is the simulator
// (core.Run outside tests).
func RunPointFunc(pt Point, run func(Config) (metrics.Results, error)) PointResult {
	res, err := runPointSafe(pt.Config, run)
	return PointResult{Point: pt, Results: res, Err: err}
}

// runPointSafe converts a panicking point into an error so one bad
// configuration cannot crash a whole sweep.
func runPointSafe(c Config, run func(Config) (metrics.Results, error)) (res metrics.Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: sweep point panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return run(c)
}
