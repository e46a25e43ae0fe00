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
func TestGoldenOutput(t *testing.T) {
	for name, args := range map[string][]string{
		"deadlock": {"-mode", "deadlock", "-k", "4", "-n", "2", "-faults", "2"},
		"model":    {"-mode", "model", "-k", "4", "-n", "2", "-measure", "200"},
		"livelock": {"-mode", "livelock", "-k", "4", "-n", "2", "-faults", "2", "-seed", "3"},
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
