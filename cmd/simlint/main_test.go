package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// simlintExe is the tool, compiled once per test process; every test
// drives that one binary.
var simlintExe string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "simlint-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	simlintExe = filepath.Join(dir, "simlint")
	if out, err := exec.Command("go", "build", "-o", simlintExe, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build ./cmd/simlint: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestDoctoredViolationFails is the analyzer suite's injected-regression
// check: a file with an unordered map iteration, type-checked as part of the determinism-critical
// internal/network package, must fail simlint with exit status 1 and name
// the maprange analyzer.
func TestDoctoredViolationFails(t *testing.T) {
	doctored := filepath.Join(t.TempDir(), "doctored.go")
	src := `package network

func leakOrder(m map[int]int, sink func(int)) {
	for k := range m {
		sink(k)
	}
}
`
	if err := os.WriteFile(doctored, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(simlintExe, "-pkgpath", "repro/internal/network", doctored)
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error from doctored run, got err=%v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Fatalf("doctored violation: want exit 1, got %d\n%s", code, out)
	}
	if !strings.Contains(string(out), "maprange") {
		t.Fatalf("doctored violation output does not mention maprange:\n%s", out)
	}
}

// TestCleanFileExitsZero: the same file is clean once the iteration is
// removed, and clean runs exit 0.
func TestCleanFileExitsZero(t *testing.T) {
	clean := filepath.Join(t.TempDir(), "clean.go")
	src := `package network

func noMaps(s []int, sink func(int)) {
	for _, v := range s {
		sink(v)
	}
}
`
	if err := os.WriteFile(clean, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(simlintExe, "-pkgpath", "repro/internal/network", clean)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("clean run: %v\n%s", err, out)
	}
}

// TestHelpExitsZero: -h prints the usage on stderr and exits 0 (the flag
// set is ExitOnError, so it is the binary that is driven, not run).
func TestHelpExitsZero(t *testing.T) {
	cmd := exec.Command(simlintExe, "-h")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil || stdout.Len() != 0 || !strings.Contains(stderr.String(), "usage: simlint") {
		t.Errorf("err %v, stdout %q, stderr %q; want exit 0, nothing, the usage", err, &stdout, &stderr)
	}
}

// TestRealTreeIsClean runs the shipped suite over the whole module — the
// same gate the simlint CI job applies. A regression here means a contract
// violation landed without a sorted rewrite or a justified ignore.
func TestRealTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree typecheck is slow; run without -short")
	}
	cmd := exec.Command(simlintExe, "./...")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("simlint ./... on the real tree failed: %v\n%s", err, out)
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}
