package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shape-U.golden was recorded from the faultviz binary of the commit before
// main became run(args, stdout, stderr) (3f78b42): it pins that program's
// output and must not be regenerated from this code. random.golden is this
// tree's, recorded when -random became core.BuildFaults' placement
// (../tools_test.go holds it to it).
func TestGoldenOutput(t *testing.T) {
	for name, args := range map[string][]string{
		"shape-U": {"-k", "8", "-shape", "U", "-a", "3", "-b", "4"},
		"random":  {"-k", "8", "-random", "5", "-seed", "3"},
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

// -shape takes fault.Shape's own names; "doublebar", the spelling the flag's
// help has always listed, is the alias of "double-bar".
func TestShapeNamesAreFaultShapes(t *testing.T) {
	draw := func(shape string) string {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-k", "8", "-shape", shape}, &stdout, &stderr); code != 0 {
			t.Fatalf("-shape %s: exit %d, stderr %q", shape, code, &stderr)
		}
		return stdout.String()
	}
	if a, b := draw("doublebar"), draw("double-bar"); a != b {
		t.Errorf("doublebar and double-bar draw different planes:\n%s\n%s", a, b)
	}
	for _, shape := range []string{"bar", "rect", "L", "U", "T", "plus", "H"} {
		draw(shape)
	}
}

func TestRejectedInvocations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string // prefix
	}{
		{"unknown-shape", []string{"-shape", "Z"}, 2, "faultviz: unknown shape \"Z\"\n"},
		{"disconnecting-shape", []string{"-k", "8", "-shape", "doublebar", "-a", "8"}, 1,
			"faultviz: core: fault specification disconnects the network\n"},
		{"self-overlap", []string{"-k", "4", "-shape", "rect", "-a", "9", "-b", "9"}, 1,
			"faultviz: fault: shape rect at (2,2) self-overlaps after wraparound (k=4)\n"},
		{"nothing-to-draw", nil, 2, "Usage of faultviz:\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code || !strings.HasPrefix(stderr.String(), tc.stderr) || stdout.Len() != 0 {
				t.Errorf("exit %d (want %d)\nstderr: %q\nwant prefix: %q\nstdout: %q", code, tc.code, &stderr, tc.stderr, &stdout)
			}
		})
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "Usage of faultviz") {
		t.Errorf("exit %d, stdout %q, stderr %q; want 0, nothing, the usage", code, &stdout, &stderr)
	}
}
