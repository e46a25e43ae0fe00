package lint

import (
	"go/ast"
	"go/token"
	"strconv"
)

// RegisterInit enforces the registry contract shared by the five plug-in
// seams (routing algorithms, topologies, traffic patterns, arrival sources,
// fault schedules):
//
//   - Register calls appear inside init() functions, so a package's
//     capabilities are visible the moment it is imported and never depend
//     on call order at runtime;
//   - the registered Name (and every Alias) is a string literal, so the
//     full capability surface is greppable and statically known;
//   - names are unique across the whole build — the driver aggregates every
//     package's entries and reports duplicates, which at runtime would
//     silently shadow or panic depending on registration order.
//
// Run returns the package's []RegEntry for the cross-package duplicate
// check (see RegistryDuplicates).
var RegisterInit = &Analyzer{
	Name: "registerinit",
	Doc:  "registry Register calls must be in init() with unique string-literal names",
	Run:  runRegisterInit,
}

// registryFuncs maps the fully-qualified registration functions — the
// seams' typed entry points, the only callers of registry.Table.Register —
// to the registry namespace their names live in. Their first argument is
// the Info literal (the seam's own, or registry.Info) the names are read
// from.
var registryFuncs = map[string]string{
	modulePath + "/internal/routing.Register":        "routing",
	modulePath + "/internal/topology.Register":       "topology",
	modulePath + "/internal/traffic.RegisterPattern": "traffic-pattern",
	modulePath + "/internal/traffic.RegisterSource":  "traffic-source",
	modulePath + "/internal/fault.RegisterSchedule":  "fault-schedule",
}

// A RegEntry is one statically-resolved registry name: primary Name or
// Alias, in the given registry namespace.
type RegEntry struct {
	Registry string
	Name     string
	Pos      token.Position
}

func runRegisterInit(pass *Pass) (any, error) {
	var entries []RegEntry
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, isFunc := decl.(*ast.FuncDecl)
			inInit := isFunc && fn.Recv == nil && fn.Name.Name == "init"
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := funcObj(pass.TypesInfo, call)
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				registry, ok := registryFuncs[obj.Pkg().Path()+"."+obj.Name()]
				if !ok {
					return true
				}
				if !inInit {
					pass.Reportf(call.Pos(),
						"%s registration outside init(): capabilities must be wired at import time, not at call time", registry)
				}
				entries = append(entries, registerNames(pass, registry, call)...)
				return true
			})
		}
	}
	return entries, nil
}

// registerNames extracts the string-literal Name and Aliases from the Info
// composite literal of one Register call, reporting any non-literal name.
func registerNames(pass *Pass, registry string, call *ast.CallExpr) []RegEntry {
	if len(call.Args) == 0 {
		return nil
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.CompositeLit)
	if !ok {
		pass.Reportf(call.Args[0].Pos(),
			"%s registration with a computed Info value; spell the Info literal inline so Name is a string literal", registry)
		return nil
	}
	var out []RegEntry
	sawName := false
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Name":
			sawName = true
			if name, ok := stringLit(kv.Value); ok {
				out = append(out, RegEntry{registry, name, pass.Fset.Position(kv.Value.Pos())})
			} else {
				pass.Reportf(kv.Value.Pos(),
					"%s registration Name must be a string literal, not a computed value", registry)
			}
		case "Aliases":
			al, ok := ast.Unparen(kv.Value).(*ast.CompositeLit)
			if !ok {
				pass.Reportf(kv.Value.Pos(),
					"%s registration Aliases must be a literal []string", registry)
				continue
			}
			for _, a := range al.Elts {
				if name, ok := stringLit(a); ok {
					out = append(out, RegEntry{registry, name, pass.Fset.Position(a.Pos())})
				} else {
					pass.Reportf(a.Pos(),
						"%s registration alias must be a string literal, not a computed value", registry)
				}
			}
		}
	}
	if !sawName {
		pass.Reportf(lit.Pos(), "%s registration Info has no Name field", registry)
	}
	return out
}

func stringLit(e ast.Expr) (string, bool) {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || bl.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(bl.Value)
	return s, err == nil
}
