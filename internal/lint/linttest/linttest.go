// Package linttest is an analysistest-style fixture harness for the
// simlint analyzers (the standard-library analogue of
// golang.org/x/tools/go/analysis/analysistest).
//
// A fixture is a set of Go files under the analyzer's testdata directory.
// Expected findings are marked with trailing comments:
//
//	for k := range m { // want `nondeterministic order`
//
// The comment's backquoted (or double-quoted) argument is a regexp that
// must match an emitted diagnostic on the same line; every diagnostic must
// in turn be covered by a want. Multiple expectations on one line are
// written as repeated arguments: // want `first` `second`.
//
// Fixtures are type-checked under a caller-chosen import path, so a
// testdata package can impersonate a determinism-critical package
// (package-scoped analyzers key off the path, not the directory).
package linttest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// Fixture names one fixture package: its impersonated import path and its
// files, relative to dir.
type Fixture struct {
	Path  string
	Files []string
}

// Run loads each fixture as one package, runs the analyzers over all of
// them, and diffs the diagnostics against the fixtures' want comments.
func Run(t *testing.T, dir string, analyzers []*lint.Analyzer, fixtures ...Fixture) {
	t.Helper()
	loader := lint.NewLoader()
	var pkgs []*lint.Package
	var wants []*want
	for _, fx := range fixtures {
		var files []string
		for _, f := range fx.Files {
			files = append(files, filepath.Join(dir, f))
		}
		pkg, err := loader.LoadFiles(fx.Path, files...)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", fx.Path, err)
		}
		pkgs = append(pkgs, pkg)
		wants = append(wants, collectWants(t, pkg.Fset, pkg.Files)...)
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var out []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(text, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, m := range ms {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					out = append(out, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

func claim(wants []*want, d lint.Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(diagText(d)) {
			w.matched = true
			return true
		}
	}
	return false
}

func diagText(d lint.Diagnostic) string {
	return fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
}
