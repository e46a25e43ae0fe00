// Package sweep is the multi-point experiment subsystem: named sweep
// plans with stable point identities, a JSONL checkpoint journal that
// makes long sweeps resumable after a crash or SIGKILL, and a bisection
// saturation auto-search for capacity figures. Splitting one sweep
// across processes or hosts is the coordinator's job (repro/internal/coord),
// built on the same identities and journal.
//
// The execution model is core.RunSweepFunc's: every point is an
// independent, single-goroutine, deterministic engine run, fanned out over
// a worker pool. What this package adds is identity and durability around
// that pool:
//
//   - A Plan names a list of core.Points. Each point has a stable ID
//     derived from its label and full configuration (PointID), so the
//     same point generated by another process — or by the same plan
//     re-generated after a crash — is recognised as the same work.
//   - A checkpoint journal (Options.Checkpoint) records one JSONL
//     record per completed point, written as each point finishes. A
//     re-run with the same journal skips every recorded point, so an
//     interrupted sweep resumes instead of recomputing; recovery
//     tolerates a torn final line (crash mid-write).
//
// Because engine runs are deterministic for a fixed seed, a resumed
// sweep is bit-identical to an uninterrupted run — the package's tests
// assert this through real SIGKILLs and torn journals.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
)

// Plan is a named list of sweep points. The name is descriptive (it
// labels journals and progress output); point identity comes from
// PointID, so plans can share a checkpoint file without collisions.
type Plan struct {
	// Name labels the plan in journals and logs (e.g. "fig3", "swsim").
	Name string
	// Points are the simulation points, in render order.
	Points []core.Point
}

// PointID returns the stable identity of a sweep point: a 16-hex-digit
// digest of the point's label and its full serialised configuration.
// Two processes that generate the same plan — or the same process after
// a restart — derive the same IDs, which is what lets checkpoint
// journals be resumed and coordinator caches serve. Any change to the
// label or to any Config field changes the ID, so a stale journal can
// never satisfy a semantically different point.
func PointID(pt core.Point) string {
	cfg, err := json.Marshal(pt.Config)
	if err != nil {
		// Config is a plain data struct; Marshal cannot fail on it.
		panic(fmt.Sprintf("sweep: marshal config: %v", err))
	}
	h := sha256.New()
	io.WriteString(h, pt.Label)
	h.Write([]byte{0})
	h.Write(cfg)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// IDs returns the stable point IDs of the plan, aligned with Points.
func (p Plan) IDs() []string {
	ids := make([]string, len(p.Points))
	for i, pt := range p.Points {
		ids[i] = PointID(pt)
	}
	return ids
}

// Options configures one Run invocation.
type Options struct {
	// Workers is the worker-pool width; <= 0 means GOMAXPROCS.
	Workers int
	// Checkpoint is the JSONL journal path. When non-empty, previously
	// journalled points are skipped and each newly completed point is
	// appended as it finishes. Empty disables checkpointing.
	Checkpoint string
	// Log, when non-nil, receives one-line progress notes (resume
	// counts). Typically os.Stderr in CLIs.
	Log io.Writer

	// runSweepFunc lets tests substitute the execution pool (and hence
	// the simulator) without touching the checkpoint logic. Nil uses
	// core.RunSweepFunc.
	runSweepFunc func([]core.Point, int, func(int, core.PointResult)) []core.PointResult
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Run executes the plan and returns one result per plan point, in plan
// order. A valid checkpoint record satisfies its point without running
// anything (whichever process or host produced the record); every other
// point is executed on the worker pool and — when checkpointing —
// journalled on completion.
//
// Run returns an error only for journal I/O failures; per-point
// simulation errors and panics travel in PointResult.Err exactly as
// with core.RunSweepFunc.
func Run(plan Plan, opt Options) ([]core.PointResult, error) {
	ids := plan.IDs()
	results := make([]core.PointResult, len(plan.Points))

	var journal *Journal
	cached := map[string]Record{}
	if opt.Checkpoint != "" {
		var err error
		journal, err = OpenJournal(opt.Checkpoint)
		if err != nil {
			return nil, err
		}
		defer journal.Close()
		for _, rec := range journal.Records() {
			cached[rec.ID] = rec
		}
	}

	var toRun []int // plan indices this invocation must execute
	for i := range plan.Points {
		if rec, ok := cached[ids[i]]; ok {
			results[i] = rec.Result(plan.Points[i])
			continue
		}
		toRun = append(toRun, i)
	}
	if nCached := len(plan.Points) - len(toRun); nCached > 0 {
		opt.logf("sweep %s: %d points (%d from checkpoint, %d to run)",
			plan.Name, len(plan.Points), nCached, len(toRun))
	}
	if len(toRun) == 0 {
		return results, nil
	}

	points := make([]core.Point, len(toRun))
	for j, i := range toRun {
		points[j] = plan.Points[i]
	}
	var journalErr error
	done := func(j int, r core.PointResult) {
		if journal == nil || journalErr != nil {
			return
		}
		if err := journal.Append(NewRecord(ids[toRun[j]], r)); err != nil {
			journalErr = err
		}
	}
	pool := opt.runSweepFunc
	if pool == nil {
		pool = core.RunSweepFunc
	}
	ran := pool(points, opt.Workers, done)
	for j, i := range toRun {
		results[i] = ran[j]
	}
	if journalErr != nil {
		return results, fmt.Errorf("sweep: checkpoint %s: %w", opt.Checkpoint, journalErr)
	}
	return results, nil
}

// NewRecord converts a completed point result into its journal form.
func NewRecord(id string, r core.PointResult) Record {
	rec := Record{ID: id, Label: r.Label, Results: r.Results}
	if r.Err != nil {
		rec.Err = r.Err.Error()
	}
	return rec
}

// Result reconstitutes a journal record as the result of pt — the
// conversion shared by checkpoint replay and the coordinator's
// cache-served results (repro/internal/coord). The error round-trips as
// its message (wrapped so callers can tell it was replayed from a
// checkpoint).
func (rec Record) Result(pt core.Point) core.PointResult {
	r := core.PointResult{Point: pt, Results: rec.Results}
	if rec.Err != "" {
		r.Err = fmt.Errorf("checkpointed failure: %s", rec.Err)
	}
	return r
}
