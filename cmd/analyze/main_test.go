package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// model.golden was recorded from the analyze binary of the commit before
// main became run(args, stdout, stderr) (3f78b42): it pins that program's
// output and must not be regenerated from this code. deadlock.golden and
// livelock.golden are this tree's: the first since internal/deadlock
// stopped walking e-cube paths of its own, both since -faults/-seed place
// the nodes core.BuildFaults places (../tools_test.go holds them to it).
// deadlock-mesh.golden and deadlock-shape.golden are this tree's too,
// recorded when analyze took core.BindFlags' -topo and -shape; their
// verdicts were checked by hand against ../../internal/deadlock/testdata/
// cdg.golden's "mesh:k=4,n=3 fault-free" and "torus:k=8,n=2 U-shaped"
// rows (all acyclic; adaptive and valiant-adaptive cyclic 8, det and
// valiant acyclic). model-vs-sim and model-shape are this tree's: the
// first's model column (47.6 … 89.1) was checked against the model_vs_sim
// example's golden it replaces; the second's header must read nf=8, the
// nodes a U region fails, which the model counts as the simulator does.
func TestGoldenOutput(t *testing.T) {
	for name, args := range map[string][]string{
		"model-vs-sim":   {"-mode", "model", "-k", "8", "-n", "2", "-v", "4", "-m", "32", "-faults", "3", "-measure", "200"},
		"model-shape":    {"-mode", "model", "-k", "8", "-n", "2", "-shape", "U", "-measure", "300"},
		"deadlock":       {"-mode", "deadlock", "-k", "4", "-n", "2", "-faults", "2"},
		"deadlock-mesh":  {"-mode", "deadlock", "-topo", "mesh:k=4,n=3"},
		"deadlock-shape": {"-mode", "deadlock", "-k", "8", "-n", "2", "-shape", "U"},
		"model":          {"-mode", "model", "-k", "4", "-n", "2", "-measure", "200"},
		"livelock":       {"-mode", "livelock", "-k", "4", "-n", "2", "-faults", "2", "-seed", "3"},
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

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "Usage of analyze") {
		t.Errorf("exit %d, stdout %q, stderr %q; want 0, nothing, the usage", code, &stdout, &stderr)
	}
}

func TestUnknownModeRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-mode", "nope"}, &stdout, &stderr)
	if want := "analyze: unknown mode \"nope\"\n"; code != 2 || stderr.String() != want || stdout.Len() != 0 {
		t.Errorf("exit %d, stderr %q (want 2, %q), stdout %q", code, &stderr, want, &stdout)
	}
}

// TestRejectedInvocations pins exit code and stderr of refused command
// lines; none may print a report.
func TestRejectedInvocations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"model-on-mesh", []string{"-mode", "model", "-topo", "mesh:k=8,n=2"}, 2,
			"analyze: -mode model takes a torus (analytic.Model is a k-ary n-cube model), not mesh:k=8,n=2\n"},
		{"unknown-shape", []string{"-shape", "Z"}, 2, "analyze: unknown shape \"Z\" (rect|T|plus|L|U)\n"},
		{"unknown-topology", []string{"-topo", "moebius"}, 2,
			"analyze: topology: unknown topology \"moebius\" (registered: [hypercube mesh torus])\n"},
		{"unknown-alg", []string{"-alg", "nope"}, 1,
			"analyze: unknown routing algorithm \"nope\" (registered: [adaptive det valiant valiant-adaptive])\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code || stderr.String() != tc.stderr || stdout.Len() != 0 {
				t.Errorf("exit %d (want %d)\nstderr: %q\nwant:   %q\nstdout: %q", code, tc.code, &stderr, tc.stderr, &stdout)
			}
		})
	}
}
