package lint_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestMalformedDirectives: an ignore directive that does not suppress what it says
// is a finding of its own. A reasonless one suppresses nothing and is
// reported; one whose analyzer ran over the package without a finding
// there is stale; one naming no registered analyzer is reported whether or
// not anything ran. A //simlint:phase with an unknown phase is reported.
// A want "line analyzer: text" claims one finding of that analyzer on that
// line whose message contains text.
func TestMalformedDirectives(t *testing.T) {
	for _, tc := range []struct {
		name, path, file string
		analyzers        []*lint.Analyzer
		want             []string
	}{
		{"reasonless ignore, unknown phase", "repro/internal/network", "bad_directive.go",
			[]*lint.Analyzer{lint.MapRange, lint.PhasePurity}, []string{
				"8 maprange: nondeterministic order", // the reasonless ignore must not suppress
				"8 directive: malformed //simlint:ignore",
				`14 phasepurity: unknown //simlint:phase "quantum"`,
			}},
		{"stale ignore, unknown analyzer", "repro/internal/network", "stale_directive.go",
			[]*lint.Analyzer{lint.MapRange}, []string{
				"8 directive: stale //simlint:ignore: no maprange finding here to suppress",
				`17 directive: //simlint:ignore names no analyzer "mapragne" (registered: maprange, rngpurity, reflife, phasepurity)`,
				"18 maprange: nondeterministic order",
			}},
		// Out of maprange's scope the analyzer does not run, so its
		// directives cannot be stale; the misspelt one is still wrong.
		{"out of scope", "repro/internal/sweep", "stale_directive.go",
			[]*lint.Analyzer{lint.MapRange}, []string{
				`17 directive: //simlint:ignore names no analyzer "mapragne"`,
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pkg, err := loader.LoadFiles(tc.path, filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(tc.want)
			for _, d := range lint.Run([]*lint.Package{pkg}, tc.analyzers) {
				at := fmt.Sprintf("%d %s", d.Pos.Line, d.Analyzer)
				i := slices.IndexFunc(want, func(w string) bool {
					head, text, _ := strings.Cut(w, ": ")
					return head == at && strings.Contains(d.Message, text)
				})
				if i < 0 {
					t.Errorf("unexpected diagnostic: %s", d)
					continue
				}
				want = slices.Delete(want, i, i+1)
			}
			for _, w := range want {
				t.Errorf("missing diagnostic %q", w)
			}
		})
	}
}
