package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/sweep"
)

// The goldens under testdata/ were recorded from the commit before
// cmd/figures became declarative (0f519c5), built with only this tiny
// scale entry patched into its scales table — they pin the old program's
// output, not this one's, and must never be regenerated from this code.
// The scale exists only inside the test binary.
func init() { scales["tiny"] = scaleSpec{warmup: 20, measure: 150, thin: 3} }

var figNames = []string{"1", "3", "4", "5", "6", "7", "ext", "sat", "churn"}

var wallTime = regexp.MustCompile(`\n\(total wall time [^\n]*\)\n$`)

// figuresRun drives the command in-process and returns its stdout with
// the wall-time trailer stripped.
func figuresRun(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return wallTime.ReplaceAllString(out.String(), ""), errw.String(), code
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func skipSlow(t *testing.T, fig string) {
	if testing.Short() && (fig == "3" || fig == "4") {
		t.Skip("slow figure")
	}
}

// TestGoldenOutput pins every -fig value's stdout at the tiny scale with
// two placements per cell, plus the -csv and -plot renderings.
func TestGoldenOutput(t *testing.T) {
	for _, fig := range figNames {
		t.Run(fig, func(t *testing.T) {
			skipSlow(t, fig)
			got, stderr, code := figuresRun(t, "-fig", fig, "-scale", "tiny", "-seeds", "2")
			if code != 0 || got != golden(t, fig+".golden") {
				t.Errorf("exit %d, stdout differs from testdata/%s.golden:\n%s\nstderr:\n%s", code, fig, got, stderr)
			}
		})
	}
	for name, args := range map[string][]string{
		"5.csv.golden":  {"-fig", "5", "-csv"},
		"3.plot.golden": {"-fig", "3", "-plot"},
	} {
		t.Run(name, func(t *testing.T) {
			skipSlow(t, args[1])
			got, stderr, code := figuresRun(t, append(args, "-scale", "tiny", "-seeds", "2")...)
			if code != 0 || got != golden(t, name) {
				t.Errorf("exit %d, stdout differs from testdata/%s:\n%s\nstderr:\n%s", code, name, got, stderr)
			}
		})
	}
}

var errNotSimulated = errors.New("not simulated")

// planLines draws one figure against a front door that simulates nothing
// and returns a "plan name · label · PointID" line per point, in plan
// order.
func planLines(fig string, scale scaleSpec, seeds int) string {
	var b strings.Builder
	h := &harness{scale: scale, seeds: seeds, topo: "torus", stdout: io.Discard, stderr: io.Discard,
		runPlan: func(plan sweep.Plan) ([]core.PointResult, error) {
			res := make([]core.PointResult, len(plan.Points))
			for i, pt := range plan.Points {
				fmt.Fprintf(&b, "%s · %s · %s\n", plan.Name, pt.Label, sweep.PointID(pt))
				res[i] = core.PointResult{Point: pt, Err: errNotSimulated}
			}
			return res, nil
		}}
	for _, f := range figures {
		if f.name == fig {
			f.draw(h)
		}
	}
	return b.String()
}

// TestLargestPlanUploadFitsTheCoordinator holds coord.MaxRequestBytes to
// its derivation: the largest body the tree sends a coordinator is one
// figure plan with every definition attached, at -scale full and the
// paper's five placements, and the ceiling leaves that eight times over.
func TestLargestPlanUploadFitsTheCoordinator(t *testing.T) {
	largest, name := 0, ""
	h := &harness{scale: scales["full"], seeds: 5, topo: "torus", stdout: io.Discard, stderr: io.Discard,
		runPlan: func(plan sweep.Plan) ([]core.PointResult, error) {
			body, err := json.Marshal(coord.PlanRequest{Name: plan.Name, IDs: plan.IDs(), Points: plan.Wire()})
			if err != nil {
				t.Fatal(err)
			}
			if len(body) > largest {
				largest, name = len(body), plan.Name
			}
			res := make([]core.PointResult, len(plan.Points))
			for i, pt := range plan.Points {
				res[i] = core.PointResult{Point: pt, Err: errNotSimulated}
			}
			return res, nil
		}}
	for _, f := range figures {
		if f.name != "sat" {
			f.draw(h)
		}
	}
	t.Logf("largest plan upload: %q, %d bytes", name, largest)
	if 8*largest > coord.MaxRequestBytes {
		t.Fatalf("plan %q uploads %d bytes; coord.MaxRequestBytes = %d leaves less than 8x headroom", name, largest, coord.MaxRequestBytes)
	}
}

// TestPlanIdentity proves that every figure still generates the same
// points, under the same plan names and labels, with the same
// sweep.PointIDs, in the same order as before the rewrite — which is
// what lets journals and coordinator caches written by older binaries
// keep serving. The tiny-scale list is compared line by line; the three
// real scales (default -seeds) by digest. The saturation searches choose
// their probes from results, so their list is read back from the journal
// of a real single-worker run.
func TestPlanIdentity(t *testing.T) {
	grids := []string{"3", "4", "5", "6", "7", "ext", "churn"}
	var got strings.Builder
	for _, fig := range grids {
		got.WriteString(planLines(fig, scales["tiny"], 2))
	}
	ckpt := filepath.Join(t.TempDir(), "sat.jsonl")
	if _, stderr, code := figuresRun(t, "-fig", "sat", "-scale", "tiny", "-seeds", "2", "-workers", "1", "-checkpoint", ckpt); code != 0 {
		t.Fatalf("-fig sat: exit %d\n%s", code, stderr)
	}
	j, err := sweep.OpenJournal(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, rec := range j.Records() {
		fmt.Fprintf(&got, "%s · %s · %s\n", rec.Label[:strings.LastIndex(rec.Label, "|l")], rec.Label, rec.ID)
	}
	if want := golden(t, "plans.golden"); got.String() != want {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("plan line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plan list has %d lines, want %d", len(gl), len(wl))
	}

	var digests strings.Builder
	for _, scale := range []string{"quick", "default", "full"} {
		for _, fig := range grids {
			lines := planLines(fig, scales[scale], 3)
			fmt.Fprintf(&digests, "%s %s %d %x\n", scale, fig, strings.Count(lines, "\n"), sha256.Sum256([]byte(lines)))
		}
	}
	if want := golden(t, "plans.sha256"); digests.String() != want {
		t.Errorf("plan digests at the real scales changed:\n got:\n%swant:\n%s", digests.String(), want)
	}
}

// TestRejectedInvocationHasNoSideEffects: a refused command line must
// leave the -checkpoint journal byte-identical (or absent).
func TestRejectedInvocationHasNoSideEffects(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "all.jsonl")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown figure", []string{"-fig", "8"}},
		{"unknown scale", []string{"-fig", "churn", "-scale", "huge"}},
		{"no seeds", []string{"-fig", "6", "-scale", "quick", "-seeds", "0"}},
		{"negative seeds", []string{"-fig", "6", "-scale", "quick", "-seeds", "-1"}},
		{"coordinator conflict", []string{"-fig", "churn", "-coordinator", "http://127.0.0.1:1"}},
		{"negative workers", []string{"-fig", "churn", "-workers", "-3"}},
		{"removed shard flag", []string{"-fig", "churn", "-shard", "0/2"}},
		{"removed merge flag", []string{"-fig", "churn", "-merge", "a.jsonl"}},
	} {
		for _, existing := range []bool{false, true} {
			os.Remove(ckpt)
			if existing {
				if err := os.WriteFile(ckpt, []byte("{\"id\":\"0123456789abcdef\",\"label\":\"x\",\"results\":{}}\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before, _ := os.ReadFile(ckpt)
			_, stderr, code := figuresRun(t, append(tc.args, "-checkpoint", ckpt)...)
			if code != 2 {
				t.Errorf("%s: exit %d, want 2\n%s", tc.name, code, stderr)
			}
			after, err := os.ReadFile(ckpt)
			if existing && (err != nil || !bytes.Equal(before, after)) {
				t.Errorf("%s: rejected invocation changed the checkpoint (err %v)", tc.name, err)
			}
			if !existing && !os.IsNotExist(err) {
				t.Errorf("%s: rejected invocation created the checkpoint", tc.name)
			}
		}
	}
}

// TestSatWithCoordinator: the saturation searches' probes are sequential,
// so the fleet cannot serve them. Asking for exactly that is refused with
// swsim's wording; under -fig all the grid sweeps do go to the fleet and
// one stderr line says the searches run in-process — and the fleet-served
// tables are byte-identical to the local goldens.
func TestSatWithCoordinator(t *testing.T) {
	_, stderr, code := figuresRun(t, "-fig", "sat", "-scale", "tiny", "-coordinator", "http://127.0.0.1:1")
	if want := "figures: -coordinator applies to -sweep mode only (the fleet runs grid points)\n"; code != 2 || stderr != want {
		t.Errorf("-fig sat -coordinator: exit %d, stderr %q; want 2, %q", code, stderr, want)
	}
	if testing.Short() {
		t.Skip("-fig all through an in-process fleet")
	}

	srv, err := coord.NewServer(coord.ServerOptions{Checkpoint: filepath.Join(t.TempDir(), "coord.jsonl"), MaxRetries: -1, Now: time.Now})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &coord.Worker{Client: &coord.Client{URL: ts.URL}, Name: fmt.Sprintf("w%d", i), IdlePoll: 5 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := w.Run(ctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	}()

	got, stderr, code := figuresRun(t, "-fig", "all", "-scale", "tiny", "-seeds", "2", "-coordinator", ts.URL)
	var want strings.Builder
	for _, fig := range figNames {
		want.WriteString(golden(t, fig+".golden"))
	}
	if code != 0 || got != want.String() {
		t.Errorf("-fig all -coordinator: exit %d, stdout differs from the concatenated goldens:\n%s", code, got)
	}
	if note := "figures: the -fig sat saturation searches run in-process, not on the -coordinator fleet (their probes are sequential)\n"; strings.Count(stderr, note) != 1 {
		t.Errorf("want exactly one in-process note on stderr, got:\n%s", stderr)
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "Usage of figures") {
		t.Errorf("exit %d, stdout %q, stderr %q; want 0, nothing, the usage", code, &stdout, &stderr)
	}
}
