package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shape-U.golden was recorded from the swtrace binary of the commit before
// main became run(args, stdout, stderr) (3f78b42): it pins that program's
// output and must not be regenerated from this code. The three rows with
// -faults are this tree's, recorded when random placement became
// core.BuildFaults' (../tools_test.go holds them to it), mesh's again when
// it moved to -alg adaptive; shape-U-faulted is the combination the old
// either-or switch dropped -faults from.
func TestGoldenOutput(t *testing.T) {
	for name, args := range map[string][]string{
		"torus-faulted":   {"-k", "8", "-n", "2", "-faults", "5", "-seed", "4", "-src", "0,0", "-dst", "5,5", "-alg", "det"},
		"mesh":            {"-topo", "mesh:k=8,n=2", "-alg", "adaptive", "-faults", "4", "-src", "0,0", "-dst", "7,7"},
		"shape-U":         {"-k", "8", "-n", "2", "-shape", "U", "-src", "0,3", "-dst", "4,3", "-alg", "adaptive"},
		"shape-U-faulted": {"-k", "8", "-n", "2", "-shape", "U", "-faults", "2", "-seed", "2", "-src", "0,3", "-dst", "4,3", "-alg", "adaptive"},
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

// TestRejectedInvocations pins exit code and stderr of refused command
// lines; none may print a trace. The out-of-range rows traced to the
// coordinates reduced mod k and exited 0 before parseCoords checked them.
func TestRejectedInvocations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"dst-out-of-range", []string{"-k", "4", "-n", "2", "-dst", "9,9"}, 1,
			"swtrace: need -dst: coordinate 9 in \"9,9\" is outside [0, 4)\n"},
		{"dst-out-of-range-mesh", []string{"-topo", "mesh:k=4,n=2", "-alg", "adaptive", "-dst", "3,7"}, 1,
			"swtrace: need -dst: coordinate 7 in \"3,7\" is outside [0, 4)\n"},
		{"src-negative", []string{"-src", "0,-1", "-dst", "1,1"}, 1,
			"swtrace: coordinate -1 in \"0,-1\" is outside [0, 8)\n"},
		{"missing-dst", nil, 1, "swtrace: need -dst: empty coordinates\n"},
		{"wrong-arity", []string{"-dst", "1"}, 1, "swtrace: need -dst: got 1 coordinates, topology has 2 dimensions\n"},
		{"unknown-shape", []string{"-shape", "Z", "-dst", "1,1"}, 2, "swtrace: unknown shape \"Z\" (rect|T|plus|L|U)\n"},
		{"unknown-topology", []string{"-topo", "moebius", "-dst", "1,1"}, 2,
			"swtrace: topology: unknown topology \"moebius\" (registered: [hypercube mesh torus])\n"},
		{"faulty-endpoint", []string{"-shape", "U", "-src", "3,2", "-dst", "4,3"}, 1, "swtrace: source or destination is faulty\n"},
		// Seed 4 fails node (7,7): placement is the engine's, not steered
		// around the endpoints.
		{"random-fault-on-endpoint", []string{"-faults", "5", "-seed", "4", "-src", "7,7", "-dst", "0,0"}, 1, "swtrace: source or destination is faulty\n"},
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

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "Usage of swtrace") {
		t.Errorf("exit %d, stdout %q, stderr %q; want 0, nothing, the usage", code, &stdout, &stderr)
	}
}
