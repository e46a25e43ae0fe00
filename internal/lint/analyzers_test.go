package lint_test

import (
	"fmt"
	"go/types"
	"maps"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// The fixtures impersonate real import paths (LoadFiles type-checks them
// under any path we choose), which is how the package-scoped analyzers are
// driven both in and out of scope. Every test shares one loader, so each
// dependency's export data is listed and read once per test binary.
var (
	loader   = lint.NewLoader()
	loadTree = sync.OnceValues(func() ([]*lint.Package, error) { return loader.Load("repro/...") })
)

// wantRE matches one argument of a fixture's `// want` comment.
var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// want is one expectation: a regexp that must match one finding, rendered
// "analyzer: message", on its comment's line.
type want struct {
	line    int
	re      *regexp.Regexp
	matched bool
}

// check loads testdata/file as a package under path, runs a over it, and
// diffs the findings against the file's `// want` comments:
//
//	for k := range m { // want `nondeterministic order`
//
// Each backquoted (or double-quoted) argument must match a finding on the
// comment's line, and every finding must be claimed by one. With
// inScope false the want comments are ignored and no finding is expected:
// the same code, impersonating a package the analyzer exempts.
func check(t *testing.T, a *lint.Analyzer, path, file string, inScope bool) {
	t.Helper()
	pkg, err := loader.LoadFiles(path, filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("loading %s as %s: %v", file, path, err)
	}
	var wants []*want
	for _, cg := range pkg.Files[0].Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "// want ")
			if !ok || !inScope {
				continue
			}
			pos := pkg.Fset.Position(c.Pos())
			ms := wantRE.FindAllStringSubmatch(text, -1)
			if len(ms) == 0 {
				t.Fatalf("%s: malformed want comment %q", pos, c.Text)
			}
			for _, m := range ms {
				wants = append(wants, &want{line: pos.Line, re: regexp.MustCompile(m[1] + m[2])})
			}
		}
	}
	for _, d := range lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{a}) {
		i := slices.IndexFunc(wants, func(w *want) bool {
			return !w.matched && w.line == d.Pos.Line && w.re.MatchString(fmt.Sprintf("%s: %s", d.Analyzer, d.Message))
		})
		if i < 0 {
			t.Errorf("unexpected diagnostic under %s: %s", path, d)
			continue
		}
		wants[i].matched = true
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, w.line, w.re)
		}
	}
}

func TestMapRange(t *testing.T) {
	check(t, lint.MapRange, "repro/internal/network", "maprange.go", true)
}

// TestMapRangeOutOfScope proves the same violations pass untouched outside
// the determinism-critical set.
func TestMapRangeOutOfScope(t *testing.T) {
	check(t, lint.MapRange, "repro/internal/sweep", "maprange.go", false)
}

func TestRNGPurity(t *testing.T) {
	check(t, lint.RNGPurity, "repro/internal/traffic", "rngpurity.go", true)
}

// TestRNGPurityExempt drives the same clock-reading code through the two
// exempt scopes: internal/rng itself and anything outside internal/.
func TestRNGPurityExempt(t *testing.T) {
	for _, path := range []string{"repro/internal/rng", "repro/cmd/swsim"} {
		check(t, lint.RNGPurity, path, "rngpurity_exempt.go", true)
	}
}

func TestRefLife(t *testing.T) {
	check(t, lint.RefLife, "repro/internal/network", "reflife.go", true)
}

// TestRefLifeExemptInMessage proves the arena's own package may keep
// pointer tables.
func TestRefLifeExemptInMessage(t *testing.T) {
	check(t, lint.RefLife, "repro/internal/message", "reflife.go", false)
}

func TestPhasePurity(t *testing.T) {
	check(t, lint.PhasePurity, "repro/internal/network", "phasepurity.go", true)
}

// TestTreeIsClean runs the whole suite over every package of the module. A
// failure means a contract violation landed without a sorted rewrite or a
// justified //simlint:ignore; each diagnostic names its analyzer.
func TestTreeIsClean(t *testing.T) {
	pkgs, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lint.Run(pkgs, lint.All()) {
		t.Error(d)
	}
}

// TestCommitOnlyKeysResolve: every key of phasepurity's denylist names a
// function or method declared in the module, so a rename cannot silently
// disarm an entry.
func TestCommitOnlyKeysResolve(t *testing.T) {
	pkgs, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Defs {
			if f, ok := obj.(*types.Func); ok {
				declared[f.FullName()] = true
			}
		}
	}
	for _, key := range slices.Sorted(maps.Keys(lint.CommitOnly)) {
		if !declared[key] {
			t.Errorf("commitOnly key %s names no declared function or method", key)
		}
	}
}
