package main

import (
	"bytes"
	"os"
	"testing"
)

// testdata/dimensionality.golden was recorded from the example as built at the
// commit before main became run(stdout) (8ae59d3): a difference means the
// simulator's results moved, so do not regenerate it from this code.
func TestGoldenOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/dimensionality.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run(&stdout); err != nil || stdout.String() != string(want) {
		t.Errorf("err %v, stdout differs from testdata/dimensionality.golden:\n%s", err, &stdout)
	}
}
