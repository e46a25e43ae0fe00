package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// The goldens under testdata/ were recorded from the swsim binary of the
// commit before main became run(args, stdout, stderr) (070c164): they pin
// that program's output and must not be regenerated from this code. The
// nd-* rows (SW-Based-nD on 2-, 3- and 4-D tori under ~5 % node faults,
// every message delivered) and model-vs-sim (the simulator column of
// analyze's model-vs-sim row) are this tree's, recorded when the examples
// that printed them were deleted; their latencies and delivered/generated/
// dropped counts were checked against those examples' goldens.
func TestGoldenOutput(t *testing.T) {
	nd := func(k, n, faults, alg string) []string {
		return []string{"-json", "-k", k, "-n", n, "-v", "6", "-alg", alg, "-warmup", "500", "-measure", "5000",
			"-faults", faults, "-seed", "11", "-sweep", "0.004"}
	}
	for name, args := range map[string][]string{
		"nd-8-2-det":      nd("8", "2", "3", "det"),
		"nd-8-2-adaptive": nd("8", "2", "3", "adaptive"),
		"nd-4-3-det":      nd("4", "3", "3", "det"),
		"nd-4-3-adaptive": nd("4", "3", "3", "adaptive"),
		"nd-4-4-det":      nd("4", "4", "12", "det"),
		"nd-4-4-adaptive": nd("4", "4", "12", "adaptive"),
		"model-vs-sim": {"-q", "-k", "8", "-n", "2", "-v", "4", "-m", "32", "-alg", "det", "-faults", "3",
			"-warmup", "300", "-measure", "4000", "-sweep", "0.001,0.002,0.004,0.006,0.008,0.01"},
		"point":    {"-q", "-k", "8", "-n", "2", "-v", "4", "-lambda", "0.004", "-faults", "3", "-warmup", "100", "-measure", "1000"},
		"sweep":    {"-q", "-k", "4", "-n", "2", "-warmup", "100", "-measure", "500", "-sweep", "0.002,0.004"},
		"chaos":    {"-q", "-k", "8", "-n", "2", "-v", "4", "-warmup", "200", "-measure", "2000", "-faults-schedule", "mtbf:mtbf=3000,mttr=400,elems=mixed"},
		"find-sat": {"-q", "-find-sat", "-k", "4", "-n", "2", "-warmup", "50", "-measure", "500"},
		"list":     {"-list"},
	} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 || stdout.String() != string(want) {
				t.Errorf("exit %d, stdout differs from testdata/%s.golden:\n%s\nstderr:\n%s", code, name, &stdout, &stderr)
			}
		})
	}
}

// TestRejectedInvocationHasNoSideEffects: every flag rule is checked
// before a sweep opens the checkpoint, so a refused command line (exit 2)
// leaves the journal byte-identical, or absent.
func TestRejectedInvocationHasNoSideEffects(t *testing.T) {
	swsim := func(args ...string) (int, string) {
		var out bytes.Buffer
		code := run(args, &out, &out)
		return code, out.String()
	}
	grid := []string{"-q", "-k", "4", "-n", "2", "-warmup", "20", "-measure", "100", "-sweep", "0.002,0.004"}
	ckpt := filepath.Join(t.TempDir(), "all.jsonl")
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
		{"sat factor zero", []string{"-find-sat", "-sat-factor", "0"}, "bad -sat-factor 0"},
		{"sat factor one", []string{"-find-sat", "-sat-factor", "1"}, "bad -sat-factor 1"},
		{"bad topology", append(grid, "-topo", "moebius"), "moebius"},
		{"bad engine workers", append(grid, "-engine-workers", "0"), "bad -engine-workers"},
		{"negative workers", append(grid, "-workers", "-3"), "bad -workers -3"},
		{"checkpoint without sweep", []string{"-q"}, "-checkpoint applies to -sweep and -find-sat modes only"},
		{"removed shard flag", append(grid, "-shard", "0/2"), "flag provided but not defined: -shard"},
		{"removed merge flag", []string{"-merge", "a.jsonl"}, "flag provided but not defined: -merge"},
		{"too many VCs", append(grid, "-v", "20000"), "V must be <= 255"},
		{"too deep a buffer", append(grid, "-buf", "70000"), "BufDepth <= 255, got 4 and 70000"},
	} {
		for _, existing := range []bool{false, true} {
			os.Remove(ckpt)
			if existing {
				if err := os.WriteFile(ckpt, []byte("{\"id\":\"0123456789abcdef\",\"label\":\"x\",\"results\":{}}\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before, _ := os.ReadFile(ckpt)
			if code, out := swsim(append(tc.args, "-checkpoint", ckpt)...); code != 2 || !strings.Contains(out, tc.stderr) {
				t.Errorf("%s: exit %d, want exit 2 mentioning %q\n%s", tc.name, code, tc.stderr, out)
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

// TestServiceSpecRejected: a -serve or -worker spec the registry grammar
// or a setting refuses exits 2 with the reason on stderr, before the
// coordinator opens its checkpoint= journal.
func TestServiceSpecRejected(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "co.jsonl")
	serve := "addr=127.0.0.1:-1,checkpoint=" + ckpt // an address no listener takes, should a case get that far
	worker := "url=http://127.0.0.1:1,exit=drain"
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"unknown key", []string{"-serve", serve + ",lase=5s"}, `unknown parameter "lase" (accepted: addr, checkpoint, lease, retries)`},
		{"duplicate key", []string{"-serve", serve + ",lease=5s,lease=6s"}, `duplicate parameter "lease"`},
		{"zero lease", []string{"-serve", serve + ",lease=0s"}, `lease="0s" is not a duration >= 1ns`},
		{"bad lease", []string{"-serve", serve + ",lease=x"}, `lease="x" is not a duration`},
		{"negative retries", []string{"-serve", serve + ",retries=-1"}, "retries must be >= 0"},
		{"missing checkpoint", []string{"-serve", "addr=127.0.0.1:-1"}, "-serve requires checkpoint="},
		{"empty value", []string{"-serve", serve + ",lease="}, `bad parameter "lease="`},
		{"empty pair", []string{"-serve", serve + ",,lease=5s"}, `bad parameter ""`},
		{"bad stall", []string{"-worker", worker + ",stall=x"}, `stall="x" is not a duration`},
		{"negative engine workers", []string{"-worker", worker + ",engine-workers=-1"}, "engine-workers must be >= 0"},
		{"duplicate worker key", []string{"-worker", worker + ",exit=sometimes"}, "duplicate parameter \"exit\""},
		{"bad exit value", []string{"-worker", "url=http://127.0.0.1:1,exit=sometimes"}, `bad exit="sometimes"`},
		{"missing url", []string{"-worker", "name=w1"}, "-worker requires url="},
		{"worker given a checkpoint", []string{"-worker", worker + ",checkpoint=" + ckpt}, `unknown parameter "checkpoint" (accepted: url, name, exit, stall, engine-workers)`},
		{"serve with worker", []string{"-serve", serve, "-worker", worker}, "-serve and -worker are separate processes"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: exit %d, want exit 2 mentioning %q\n%s", tc.name, code, tc.stderr, &stderr)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("%s: rejected spec created %s", tc.name, entries[0].Name())
		}
	}
}

// TestProfilesFlushedOnFailedRun: a run that fails after the profiles
// started (exit 1) still writes them — the flush is deferred in run, and
// no error path leaves through os.Exit.
func TestProfilesFlushedOnFailedRun(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "heap.pprof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-q", "-k", "4", "-n", "2", "-v", "1", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "needs V >= 2") {
		t.Fatalf("exit %d, want 1 from Validate\n%s", code, &stderr)
	}
	for _, f := range []string{cpu, mem} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written on the failed run: %v", filepath.Base(f), err)
		}
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
		// A step below lo's float resolution: lo + i·step == lo for every i.
		{in: "0.001:0.001:1e-300", want: []float64{0.001}},
		{in: "0.001:0.5:1e-300", wantErr: true}, // 5e297 points
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

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "Usage of swsim") {
		t.Errorf("exit %d, stdout %q, stderr %q; want 0, nothing, the usage", code, &stdout, &stderr)
	}
}
