package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// The fixtures impersonate real import paths (LoadFiles type-checks them
// under any path we choose), which is how the package-scoped analyzers are
// driven both in and out of scope.

func TestMapRange(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.MapRange},
		linttest.Fixture{Path: "repro/internal/network", Files: []string{"maprange.go"}})
}

// TestMapRangeOutOfScope proves the same violations pass untouched outside
// the determinism-critical set.
func TestMapRangeOutOfScope(t *testing.T) {
	loader := lint.NewLoader()
	pkg, err := loader.LoadFiles("repro/internal/sweep", "testdata/maprange.go")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.MapRange})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic outside critical packages: %s", d)
	}
}

func TestRNGPurity(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.RNGPurity},
		linttest.Fixture{Path: "repro/internal/traffic", Files: []string{"rngpurity.go"}})
}

// TestRNGPurityExempt drives the same clock-reading code through the two
// exempt scopes: internal/rng itself and anything outside internal/.
func TestRNGPurityExempt(t *testing.T) {
	for _, path := range []string{"repro/internal/rng", "repro/cmd/swsim"} {
		linttest.Run(t, "testdata", []*lint.Analyzer{lint.RNGPurity},
			linttest.Fixture{Path: path, Files: []string{"rngpurity_exempt.go"}})
	}
}

func TestRefLife(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.RefLife},
		linttest.Fixture{Path: "repro/internal/network", Files: []string{"reflife.go"}})
}

// TestRefLifeExemptInMessage proves the arena's own package may keep
// pointer tables.
func TestRefLifeExemptInMessage(t *testing.T) {
	loader := lint.NewLoader()
	pkg, err := loader.LoadFiles("repro/internal/message", "testdata/reflife.go")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.RefLife})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic inside internal/message: %s", d)
	}
}

func TestPhasePurity(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.PhasePurity},
		linttest.Fixture{Path: "repro/internal/network", Files: []string{"phasepurity.go"}})
}

// TestTreeIsClean runs the whole suite over every package of the module. A
// failure means a contract violation landed without a sorted rewrite or a
// justified //simlint:ignore; each diagnostic names its analyzer.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree typecheck is slow; run without -short")
	}
	pkgs, err := lint.NewLoader().Load("repro/...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}
