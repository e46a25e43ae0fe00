package core

import (
	"bytes"
	"os"
	"testing"
)

// TestPrintRegistriesGolden pins the CLIs' -list output byte for byte:
// testdata/list.golden was recorded from the tree before the five seams
// moved onto internal/registry, less the removed trace=<events> shorthand
// clause of the trace schedule's usage line.
func TestPrintRegistriesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/list.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	PrintRegistries(&got, "")
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-list output drifted from testdata/list.golden:\n%s", got.String())
	}
}
