// Package lint is the simulator's analyzer suite (simlint): first-party
// static analysis that turns the determinism and arena contracts from
// "proven by golden-trace tests" into "rejected at test time".
// TestTreeIsClean runs it over the whole module:
//
//	go test ./internal/lint
//
// The four analyzers:
//
//   - maprange: no `for range` over a map in determinism-critical packages
//     (iteration order would leak into traces and metrics).
//   - rngpurity: no ambient entropy (math/rand, crypto/rand, time.Now,
//     os.Getpid, ...) under internal/ outside internal/rng — all randomness
//     flows through the namespaced split streams.
//   - reflife: *message.Message pointers from the arena are call-local;
//     message.Ref is the only durable handle.
//   - phasepurity: functions marked `//simlint:phase compute` never call
//     commit-only engine APIs directly, keeping the two-phase barrier honest.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic, a multichecker driver, analysistest-style
// fixture tests) but is built on the standard library only — the module has
// no dependencies and stays that way.
//
// Findings are suppressed line-by-line with a justified directive:
//
//	//simlint:ignore maprange -- purge set; order folded through sort below
//
// The directive must name the analyzer(s) and carry a `-- reason`; a bare
// ignore is itself a finding. A directive suppresses findings on its own
// line or, when it stands alone, on the line below.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate to the
// upstream framework wholesale if the module ever takes the dependency.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //simlint:ignore directives.
	Name string
	// Run performs the check on one package, reporting findings through
	// pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{MapRange, RNGPurity, RefLife, PhasePurity}
}

// modulePath is the import-path root of this repository; the analyzers key
// their package scoping off it so fixtures can impersonate real packages.
const modulePath = "repro"

// criticalPackages are the determinism-critical packages: everything whose
// execution order can reach a trace event, a metrics counter or an rng
// draw. maprange applies here.
var criticalPackages = map[string]bool{
	modulePath + "/internal/network": true,
	modulePath + "/internal/router":  true,
	modulePath + "/internal/routing": true,
	modulePath + "/internal/fault":   true,
	modulePath + "/internal/traffic": true,
	modulePath + "/internal/core":    true,
	modulePath + "/internal/metrics": true,
}

// internalPkg reports whether path is under the module's internal/ tree.
func internalPkg(path string) bool {
	return strings.HasPrefix(path, modulePath+"/internal/")
}

// ---- //simlint:ignore directives ----

const (
	directivePrefix = "//simlint:"
	ignoreVerb      = "ignore"
)

// ignoreDirective is one parsed //simlint:ignore comment.
type ignoreDirective struct {
	names     map[string]bool // analyzer names it suppresses
	hasReason bool            // a `-- reason` tail is present
	standing  bool            // comment stands alone on its line
	pos       token.Position
}

// parseIgnores extracts every //simlint:ignore directive of a file, keyed
// by the line it appears on.
func parseIgnores(fset *token.FileSet, file *ast.File) map[int]*ignoreDirective {
	out := map[int]*ignoreDirective{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			verb, rest, _ := strings.Cut(text, " ")
			if verb != ignoreVerb {
				continue
			}
			d := &ignoreDirective{names: map[string]bool{}, pos: fset.Position(c.Pos())}
			spec, reason, found := strings.Cut(rest, "--")
			d.hasReason = found && strings.TrimSpace(reason) != ""
			for _, n := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
				d.names[n] = true
			}
			// A directive is "standing" when nothing but whitespace
			// precedes it on its line; it then covers the next line too.
			d.standing = d.pos.Column == 1 || onlyIndentBefore(fset, file, c)
			out[d.pos.Line] = d
		}
	}
	return out
}

// onlyIndentBefore reports whether comment c is the first token on its
// line. It is approximated by checking that no declaration or statement in
// the file starts on the same line before the comment; for directive
// purposes a trailing comment shares its line with the code it suppresses,
// so the distinction only widens coverage to the following line.
func onlyIndentBefore(fset *token.FileSet, file *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	standing := true
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil || !standing {
			return false
		}
		if fset.Position(n.Pos()).Line == line && n.Pos() < c.Pos() {
			if _, isFile := n.(*ast.File); !isFile {
				standing = false
			}
		}
		return true
	})
	return standing
}

// suppress filters diags through the files' ignore directives, and turns
// malformed directives (no analyzer name, or no `-- reason`) into findings
// of their own. Returned diagnostics are position-sorted.
func suppress(fset *token.FileSet, filesByName map[string][]*ast.File, diags []Diagnostic) []Diagnostic {
	type fileKey struct{ name string }
	ignores := map[fileKey]map[int]*ignoreDirective{}
	var out []Diagnostic
	for name, files := range filesByName {
		merged := map[int]*ignoreDirective{}
		for _, f := range files {
			for line, d := range parseIgnores(fset, f) {
				merged[line] = d
			}
		}
		ignores[fileKey{name}] = merged
		for _, d := range merged {
			if len(d.names) == 0 || !d.hasReason {
				out = append(out, Diagnostic{
					Analyzer: "directive",
					Pos:      d.pos,
					Message:  "malformed //simlint:ignore: want `//simlint:ignore <analyzer>[,...] -- <reason>`",
				})
			}
		}
	}
	covered := func(d Diagnostic) bool {
		m := ignores[fileKey{d.Pos.Filename}]
		if ig := m[d.Pos.Line]; ig != nil && ig.hasReason && ig.names[d.Analyzer] {
			return true
		}
		if ig := m[d.Pos.Line-1]; ig != nil && ig.standing && ig.hasReason && ig.names[d.Analyzer] {
			return true
		}
		return false
	}
	for _, d := range diags {
		if !covered(d) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// funcObj resolves the called function/method object of a call expression,
// or nil for builtins, conversions and indirect calls through variables.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
