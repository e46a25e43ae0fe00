package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// fakePool builds an Options.runSweepFunc that executes points serially
// through run, honouring the completion-callback contract of
// core.RunSweepFunc.
func fakePool(run func(core.Config) (metrics.Results, error)) func([]core.Point, int, func(int, core.PointResult)) []core.PointResult {
	return func(points []core.Point, workers int, done func(int, core.PointResult)) []core.PointResult {
		results := make([]core.PointResult, len(points))
		for i, pt := range points {
			res, err := run(pt.Config)
			results[i] = core.PointResult{Point: pt, Results: res, Err: err}
			if done != nil {
				done(i, results[i])
			}
		}
		return results
	}
}

// lambdaRunner fakes the simulator with a deterministic function of the
// config, so cached and fresh results are comparable.
func lambdaRunner(c core.Config) (metrics.Results, error) {
	return metrics.Results{MeanLatency: 100 * c.Lambda, Delivered: uint64(c.Seed)}, nil
}

func testPlan(n int) Plan {
	points := make([]core.Point, n)
	for i := range points {
		c := core.DefaultConfig(4, 2, 0.002*float64(i+1))
		c.Seed = uint64(i + 1)
		points[i] = core.Point{Label: fmt.Sprintf("p%d", i), Config: c}
	}
	return Plan{Name: "test", Points: points}
}

func TestPointIDStableAndDistinct(t *testing.T) {
	plan := testPlan(4)
	ids := plan.IDs()
	seen := map[string]bool{}
	for i, id := range ids {
		if len(id) != 16 {
			t.Fatalf("id %q: want 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
		if again := PointID(plan.Points[i]); again != id {
			t.Fatalf("id not stable: %q then %q", id, again)
		}
	}
	// Any config change must change the ID; a label change too.
	pt := plan.Points[0]
	pt.Config.V = 6
	if PointID(pt) == ids[0] {
		t.Fatal("config change did not change the point ID")
	}
	pt = plan.Points[0]
	pt.Label = "renamed"
	if PointID(pt) == ids[0] {
		t.Fatal("label change did not change the point ID")
	}
}

// TestRunCheckpointResume resumes a sweep interrupted after half its
// points (the even ones journalled): only missing points run, and the
// final results equal an uninterrupted run exactly.
func TestRunCheckpointResume(t *testing.T) {
	plan := testPlan(6)
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")

	full, err := Run(plan, Options{runSweepFunc: fakePool(lambdaRunner)})
	if err != nil {
		t.Fatal(err)
	}
	ids := plan.IDs()
	writeJournal(t, ckpt, NewRecord(ids[0], full[0]), NewRecord(ids[2], full[2]), NewRecord(ids[4], full[4]))
	var ran []string
	counting := fakePool(lambdaRunner)
	resumed, err := Run(plan, Options{Checkpoint: ckpt, runSweepFunc: func(pts []core.Point, w int, done func(int, core.PointResult)) []core.PointResult {
		for _, pt := range pts {
			ran = append(ran, pt.Label)
		}
		return counting(pts, w, done)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"p1", "p3", "p5"}; fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Fatalf("resume ran %v, want only the unjournalled %v", ran, want)
	}
	assertSameResults(t, full, resumed)

	// A third run finds everything journalled and runs nothing.
	ran = nil
	again, err := Run(plan, Options{Checkpoint: ckpt, runSweepFunc: func(pts []core.Point, w int, done func(int, core.PointResult)) []core.PointResult {
		t.Fatalf("fully journalled plan ran points: %v", pts)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, full, again)
}

// assertSameResults compares two result sets bit-for-bit via their
// canonical JSON (floats round-trip exactly through encoding/json, so
// this is equality of every metric, not approximate agreement).
func assertSameResults(t *testing.T, want, got []core.PointResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("result count %d != %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Label != got[i].Label {
			t.Fatalf("point %d: label %q != %q", i, got[i].Label, want[i].Label)
		}
		if (want[i].Err == nil) != (got[i].Err == nil) {
			t.Fatalf("point %d: error mismatch: %v vs %v", i, want[i].Err, got[i].Err)
		}
		wj, err := json.Marshal(want[i].Results)
		if err != nil {
			t.Fatal(err)
		}
		gj, err := json.Marshal(got[i].Results)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wj, gj) {
			t.Fatalf("point %d (%s): results differ:\n want %s\n  got %s", i, want[i].Label, wj, gj)
		}
	}
}
