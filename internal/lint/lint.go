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
// The framework is built on the standard library only (the module has no
// dependencies and stays that way): a Loader that type-checks the module's
// packages against the compiler's export data, and four Analyzers run over
// each Package.
//
// Findings are suppressed line-by-line with a justified directive:
//
//	//simlint:ignore maprange -- purge set; order folded through sort below
//
// The directive must name the analyzer(s) and carry a `-- reason`; a bare
// ignore is itself a finding. A directive suppresses findings on its own
// line or, when it stands alone, on the line below. Each name must be a
// registered analyzer's, and must suppress a finding of that analyzer when
// it runs over the package: a stale directive is a finding too, so none is
// left lying in wait to hide a later one.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //simlint:ignore directives.
	Name string
	// Scope reports whether the analyzer applies to the package of the
	// given import path; nil means every package.
	Scope func(path string) bool
	// Run performs the check on one package, reporting findings through
	// pass.Reportf.
	Run func(pass *Pass)
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
	modulePath + "/internal/trace":   true,
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
	ran       map[string]bool // analyzers run over the directive's package
	used      map[string]bool // names that suppressed a finding
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
			d := &ignoreDirective{names: map[string]bool{}, pos: fset.Position(c.Pos()), used: map[string]bool{}}
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

// Run executes the analyzers over the packages in their scope, filters
// their findings through the files' //simlint:ignore directives, turns
// malformed directives (no analyzer name, or no `-- reason`), names no
// registered analyzer owns, and names of an analyzer that ran but had no
// finding there to suppress into findings of their own, and returns the
// diagnostics position-sorted.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags, out []Diagnostic
	var all []*ignoreDirective
	ignores := map[string]map[int]*ignoreDirective{}
	for _, pkg := range pkgs {
		ran := map[string]bool{}
		for _, a := range analyzers {
			if a.Scope == nil || a.Scope(pkg.Types.Path()) {
				ran[a.Name] = true
				a.Run(&Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info, diags: &diags})
			}
		}
		for _, f := range pkg.Files {
			m := parseIgnores(pkg.Fset, f)
			ignores[pkg.Fset.Position(f.Pos()).Filename] = m
			for _, d := range m {
				d.ran = ran
				all = append(all, d)
			}
		}
	}
	// suppressor returns the well-formed directive that covers d, if any.
	suppressor := func(d Diagnostic) *ignoreDirective {
		m := ignores[d.Pos.Filename]
		if ig := m[d.Pos.Line]; ig != nil && ig.hasReason && ig.names[d.Analyzer] {
			return ig
		}
		if ig := m[d.Pos.Line-1]; ig != nil && ig.standing && ig.hasReason && ig.names[d.Analyzer] {
			return ig
		}
		return nil
	}
	for _, d := range diags {
		if ig := suppressor(d); ig != nil {
			ig.used[d.Analyzer] = true
		} else {
			out = append(out, d)
		}
	}
	registered := map[string]bool{}
	var names []string
	for _, a := range All() {
		registered[a.Name] = true
		names = append(names, a.Name)
	}
	for _, d := range all {
		if len(d.names) == 0 || !d.hasReason {
			out = append(out, Diagnostic{
				Analyzer: "directive",
				Pos:      d.pos,
				Message:  "malformed //simlint:ignore: want `//simlint:ignore <analyzer>[,...] -- <reason>`",
			})
			continue
		}
		for _, n := range slices.Sorted(maps.Keys(d.names)) {
			switch {
			case !registered[n]:
				out = append(out, Diagnostic{
					Analyzer: "directive",
					Pos:      d.pos,
					Message:  fmt.Sprintf("//simlint:ignore names no analyzer %q (registered: %s)", n, strings.Join(names, ", ")),
				})
			case d.ran[n] && !d.used[n]:
				out = append(out, Diagnostic{
					Analyzer: "directive",
					Pos:      d.pos,
					Message:  fmt.Sprintf("stale //simlint:ignore: no %s finding here to suppress", n),
				})
			}
		}
	}
	slices.SortFunc(out, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column), strings.Compare(a.Analyzer, b.Analyzer), strings.Compare(a.Message, b.Message))
	})
	return out
}

// funcObj resolves the called function/method object of a call expression,
// or nil for builtins, conversions and indirect calls through variables.
// A selector's Sel is recorded in Uses for qualified identifiers and method
// selections alike.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}
