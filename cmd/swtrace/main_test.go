package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/topology"
	"repro/internal/viz"
)

// shape-U.golden and draw-shape-U.golden were recorded from the binaries of
// the commit before main became run(args, stdout, stderr) (3f78b42): they
// pin those programs' output and must not be regenerated from this code.
// The draw-* files are the goldens of the standalone fault renderer this
// draw-only mode replaced ("-k 8 -shape U -a 3 -b 4" and "-k 8 -random 5
// -seed 3"), moved unchanged. The rows with -faults are this tree's,
// recorded when random placement became core.BuildFaults'
// (../tools_test.go holds them to it), mesh's again when it moved to -alg
// adaptive; shape-U-faulted is the combination the old either-or switch
// dropped -faults from.
func TestGoldenOutput(t *testing.T) {
	for name, args := range map[string][]string{
		"draw-shape-U":    {"-k", "8", "-n", "2", "-shape", "U"},
		"draw-random":     {"-k", "8", "-n", "2", "-faults", "5", "-seed", "3"},
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
		{"wrong-arity", []string{"-dst", "1"}, 1, "swtrace: need -dst: got 1 coordinates, topology has 2 dimensions\n"},
		{"unknown-shape", []string{"-shape", "Z", "-dst", "1,1"}, 2,
			"swtrace: fault: unknown shape \"Z\" (bar|double-bar|rect|L|U|T|plus|H)\n"},
		{"unknown-shape-key", []string{"-shape", "U:c=1"}, 2,
			"swtrace: fault: spec \"U:c=1\": unknown parameter \"c\" (accepted: a, b, t, ax, ay)\n"},
		{"no-silhouette", []string{"-shape", "bar"}, 2, "swtrace: fault: invalid bar shape: length 0\n"},
		{"disconnecting-shape", []string{"-shape", "doublebar:a=8"}, 1,
			"swtrace: core: fault specification disconnects the network\n"},
		{"self-overlap", []string{"-k", "4", "-shape", "rect:a=9,b=9"}, 1,
			"swtrace: fault: shape rect at (2,2) self-overlaps after wraparound (k=4)\n"},
		// Sizes no 8-ary plane holds are refused at its ninth cell, not
		// enumerated (a bar of 4 000 000 once peaked at 212 MiB).
		{"oversized-shape", []string{"-shape", "bar:a=1073741824"}, 1,
			"swtrace: fault: shape bar at (2,2) self-overlaps after wraparound (k=8)\n"},
		{"zero-length", []string{"-m", "0", "-dst", "1,1"}, 2, "swtrace: core: MsgLen must be in [1,32767], got 0\n"},
		{"negative-length", []string{"-m", "-4"}, 2, "swtrace: core: MsgLen must be in [1,32767], got -4\n"},
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

// TestDrawOnly: without -dst swtrace draws the faults a traced run would
// cross and exits 0. Both rows draw the fault-free 8-ary 2-cube: one with
// no flag at all, one with every trace flag but -dst, which alone asks for
// a trace (both command lines were refused before draw-only mode).
func TestDrawOnly(t *testing.T) {
	empty := fault.NewSet(topology.New(8, 2))
	want := viz.RenderPlane(empty) + viz.RenderRegions(empty)
	for name, args := range map[string][]string{
		"nothing-to-draw": nil,
		"missing-dst":     {"-src", "0,0", "-alg", "det"},
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 || stdout.String() != want || stderr.Len() != 0 {
				t.Errorf("exit %d, stderr %q, stdout\n%s\nwant\n%s", code, &stderr, &stdout, want)
			}
		})
	}
}

// -shape takes fault.Shape's own names; "doublebar", the spelling the
// fault renderer's help always listed, is the alias of "double-bar".
func TestShapeNamesAreFaultShapes(t *testing.T) {
	draw := func(shape string) string {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-k", "8", "-shape", shape}, &stdout, &stderr); code != 0 {
			t.Fatalf("-shape %s: exit %d, stderr %q", shape, code, &stderr)
		}
		return stdout.String()
	}
	if a, b := draw("doublebar:a=4"), draw("double-bar:a=4"); a != b {
		t.Errorf("doublebar and double-bar draw different planes:\n%s\n%s", a, b)
	}
	for _, shape := range []string{"bar:a=4", "rect", "L", "U", "T", "plus", "H:a=4,b=4"} {
		draw(shape)
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "Usage of swtrace") {
		t.Errorf("exit %d, stdout %q, stderr %q; want 0, nothing, the usage", code, &stdout, &stderr)
	}
}
