package lint

import (
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// MapRange flags `for range` over a map in the determinism-critical
// packages. Go randomises map iteration order per run, so any map walk
// whose iteration order can reach a trace event, a metrics counter, an rng
// draw or a routing decision breaks the bit-identical-for-a-fixed-seed
// contract.
//
// Two shapes are recognised as safe and not flagged:
//
//   - `for range m { ... }` with neither key nor value bound: every
//     iteration is identical, so order cannot leak.
//   - the key-collection idiom `for k := range m { keys = append(keys, k) }`
//     whose single statement appends the key to a slice — the canonical
//     first half of a sort-then-range rewrite.
//
// Everything else needs either the sorted-keys rewrite or a justified
// `//simlint:ignore maprange -- <reason>` directive.
var MapRange = &Analyzer{
	Name: "maprange",
	Run:  runMapRange,
}

func runMapRange(pass *Pass) error {
	if !criticalPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if rng.Key == nil && rng.Value == nil {
				return true // order-free: no iteration variable bound
			}
			if isKeyCollect(pass, rng) {
				return true
			}
			pass.Reportf(rng.For,
				"iteration over map %s has nondeterministic order in determinism-critical package %s; range over sorted keys instead, or annotate `//simlint:ignore maprange -- <why order cannot leak>`",
				exprString(pass.Fset, rng.X), pass.Pkg.Path())
			return true
		})
	}
	return nil
}

// isKeyCollect recognises `for k := range m { s = append(s, k) }` (value
// unbound, single append of the key into a slice).
func isKeyCollect(pass *Pass, rng *ast.RangeStmt) bool {
	key, ok := ast.Unparen(rng.Key).(*ast.Ident)
	if !ok || rng.Value != nil || key.Name == "_" {
		return false
	}
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 || asg.Tok != token.ASSIGN {
		return false
	}
	call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || call.Ellipsis != token.NoPos {
		return false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	// append's target must be the assignment's own LHS ...
	if exprString(pass.Fset, asg.Lhs[0]) != exprString(pass.Fset, call.Args[0]) {
		return false
	}
	// ... and the appended element exactly the key variable.
	arg, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	if !ok {
		return false
	}
	return pass.TypesInfo.Uses[arg] == pass.TypesInfo.Defs[key]
}

// exprString renders an expression compactly for diagnostics.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, e); err != nil {
		return "<expr>"
	}
	return sb.String()
}
