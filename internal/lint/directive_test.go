package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestMalformedDirectives: a reasonless //simlint:ignore suppresses
// nothing and is reported itself, and //simlint:phase with an unknown
// phase is reported.
func TestMalformedDirectives(t *testing.T) {
	pkg, err := loader.LoadFiles("repro/internal/network", "testdata/bad_directive.go")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.MapRange, lint.PhasePurity})
	want := map[string]string{
		"maprange":    "nondeterministic order",     // the reasonless ignore must not suppress
		"directive":   "malformed //simlint:ignore", // and is itself a finding
		"phasepurity": `unknown //simlint:phase "quantum"`,
	}
	for _, d := range diags {
		pat, ok := want[d.Analyzer]
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if !strings.Contains(d.Message, pat) {
			t.Errorf("%s diagnostic %q does not mention %q", d.Analyzer, d.Message, pat)
		}
		delete(want, d.Analyzer)
	}
	for a := range want {
		t.Errorf("missing %s diagnostic", a)
	}
}
