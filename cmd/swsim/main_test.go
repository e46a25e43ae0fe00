package main

import (
	"bytes"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRejectedInvocationHasNoSideEffects: every flag rule is checked
// before -merge appends to the checkpoint, so a refused command line
// (exit 2) leaves the journal byte-identical, or absent.
func TestRejectedInvocationHasNoSideEffects(t *testing.T) {
	dir := t.TempDir()
	exe := filepath.Join(dir, "swsim")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	grid := []string{"-q", "-k", "4", "-n", "2", "-warmup", "20", "-measure", "100", "-sweep", "0.002,0.004"}
	shard := filepath.Join(dir, "s0.jsonl")
	if out, err := exec.Command(exe, append(grid, "-shard", "0/2", "-checkpoint", shard)...).CombinedOutput(); err != nil {
		t.Fatalf("shard run: %v\n%s", err, out)
	}
	ckpt := filepath.Join(dir, "all.jsonl")
	seed, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"coordinator conflict", append(grid, "-coordinator", "http://127.0.0.1:1"), "-coordinator conflicts with"},
		{"coordinator without sweep", []string{"-coordinator", "http://127.0.0.1:1"}, "-coordinator applies to -sweep mode only"},
		{"find-sat with coordinator", []string{"-find-sat", "-coordinator", "http://127.0.0.1:1"}, "-coordinator applies to -sweep mode only"},
		{"find-sat with sweep", append(grid, "-find-sat"), "mutually exclusive"},
		{"bad grid", []string{"-sweep", "0.01:0.001:0.002"}, "bad sweep range"},
		{"bad topology", append(grid, "-topo", "moebius"), "moebius"},
		{"bad engine workers", append(grid, "-engine-workers", "0"), "bad -engine-workers"},
	} {
		for _, existing := range []bool{false, true} {
			os.Remove(ckpt)
			if existing {
				if err := os.WriteFile(ckpt, seed[:bytes.IndexByte(seed, '\n')+1], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before, _ := os.ReadFile(ckpt)
			out, err := exec.Command(exe, append(tc.args, "-checkpoint", ckpt, "-merge", shard)...).CombinedOutput()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), tc.stderr) {
				t.Errorf("%s: err %v, want exit 2 mentioning %q\n%s", tc.name, err, tc.stderr, out)
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
	// The accepted merge-and-exit flow does write it.
	if out, err := exec.Command(exe, "-checkpoint", ckpt, "-merge", shard).CombinedOutput(); err != nil || !strings.Contains(string(out), "merged into") {
		t.Fatalf("merge-and-exit: %v\n%s", err, out)
	}
}

func TestResolveEngineWorkers(t *testing.T) {
	// Explicit widths pass through in every mode; only > nodes warns.
	for _, multi := range []bool{false, true} {
		w, warn, err := resolveEngineWorkers("4", 4096, multi)
		if err != nil || warn != "" || w != 4 {
			t.Errorf("resolveEngineWorkers(4, 4096, %v) = %d, %q, %v; want 4, no warning", multi, w, warn, err)
		}
	}
	if w, warn, err := resolveEngineWorkers("10", 4, false); err != nil || w != 10 || warn == "" {
		t.Errorf("resolveEngineWorkers(10, 4) = %d, %q, %v; want 10 with an over-subscription warning", w, warn, err)
	}

	// "auto" keeps sweep-mode engines serial and delegates single-point
	// runs to core.AutoWorkers (bounded by GOMAXPROCS, floored at 1).
	if w, _, err := resolveEngineWorkers("auto", 1<<15, true); err != nil || w != 1 {
		t.Errorf("auto in sweep mode = %d, %v; want 1", w, err)
	}
	w, _, err := resolveEngineWorkers("auto", 1<<15, false)
	if err != nil || w != core.AutoWorkers(1<<15) {
		t.Errorf("auto single-point = %d, %v; want core.AutoWorkers", w, err)
	}
	if max := runtime.GOMAXPROCS(0); w < 1 || w > max {
		t.Errorf("auto single-point = %d, outside [1, GOMAXPROCS=%d]", w, max)
	}
	if w, _, err := resolveEngineWorkers("auto", 16, false); err != nil || w != 1 {
		t.Errorf("auto on a 16-router topology = %d, %v; want 1 (below MinDomainNodes)", w, err)
	}

	for _, bad := range []string{"0", "-1", "1.5", "abc", "", "Auto"} {
		if _, _, err := resolveEngineWorkers(bad, 64, false); err == nil {
			t.Errorf("resolveEngineWorkers(%q): want error", bad)
		}
	}
}

func TestParseGrid(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []float64
		wantErr bool
	}{
		{in: "0.002,0.004,0.006", want: []float64{0.002, 0.004, 0.006}},
		{in: " 0.002 , 0.004 ", want: []float64{0.002, 0.004}},
		{in: "0.002:0.008:0.002", want: []float64{0.002, 0.004, 0.006, 0.008}},
		// hi not on the grid: stop below it, never overshoot.
		{in: "0.002:0.009:0.004", want: []float64{0.002, 0.006}},
		{in: "0.005:0.005:0.001", want: []float64{0.005}},
		{in: "", wantErr: true},
		{in: "0", wantErr: true},
		{in: "-0.004", wantErr: true},
		{in: "abc", wantErr: true},
		{in: "nan", wantErr: true},
		{in: "0.002,nan", wantErr: true},
		{in: "+Inf", wantErr: true},
		{in: "0.001:nan:0.002", wantErr: true},  // NaN hi would loop forever
		{in: "0.001:+Inf:0.002", wantErr: true}, // Inf hi would loop forever
		{in: "nan:0.01:0.002", wantErr: true},
		{in: "0.001:0.01:nan", wantErr: true},
		{in: "0.01:0.001:0.002", wantErr: true}, // hi below lo
		{in: "0.001:0.01", wantErr: true},
		{in: "0.001:0.01:0.002:9", wantErr: true},
		{in: "0.001:0.01:-0.002", wantErr: true},
	} {
		got, err := parseGrid(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseGrid(%q): want error, got %v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseGrid(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("parseGrid(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("parseGrid(%q)[%d] = %g, want %g", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}
