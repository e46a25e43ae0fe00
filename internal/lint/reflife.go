package lint

import (
	"go/ast"
	"go/types"
)

// RefLife enforces the arena contract: `*message.Message` pointers obtained
// from the pool (Pool.At / Pool.New) are call-local scratch. The only
// durable handle is message.Ref — a pointer stored in a struct field, a
// package variable, a map or a slice survives a Pool.Free of its slot and
// silently aliases the next worm recycled into it.
//
// The check is structural rather than a whole-program escape analysis:
//
//   - any struct field, package-level variable, or named container type
//     under internal/ whose type holds *message.Message is flagged at its
//     declaration (slices, arrays, maps, channels and pointers are
//     traversed; function types are not — callbacks receive pointers
//     call-locally);
//   - any assignment of a *message.Message value into a field selector or
//     an index expression is flagged at the store.
//
// internal/message itself is exempt: the pool's slot table is the arena's
// own implementation. Pre-adoption buffers (messages built by traffic
// sources before Network.Enqueue adopts them) are the legitimate exception
// and carry `//simlint:ignore reflife -- ...` directives.
var RefLife = &Analyzer{
	Name:  "reflife",
	Scope: func(path string) bool { return internalPkg(path) && path != modulePath+"/internal/message" },
	Run:   runRefLife,
}

func runRefLife(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					tv, ok := pass.TypesInfo.Types[field.Type]
					if ok && holdsMessagePtr(tv.Type) {
						pass.Reportf(field.Pos(),
							"struct field holds *message.Message, which dangles after Pool.Free; store a message.Ref and resolve it with Pool.At at use")
					}
				}
			case *ast.GenDecl:
				if n.Tok.String() != "var" {
					return true
				}
				// Only package-level vars: locals are call-local.
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						obj := pass.TypesInfo.Defs[name]
						if obj == nil || obj.Parent() != pass.Pkg.Scope() {
							continue
						}
						t := obj.Type()
						if holdsMessagePtr(t) || isMessagePtr(t) {
							pass.Reportf(name.Pos(),
								"package variable %s holds *message.Message beyond any call; store a message.Ref instead", name.Name)
						}
					}
				}
			case *ast.TypeSpec:
				obj := pass.TypesInfo.Defs[n.Name]
				if obj == nil {
					return true
				}
				u := obj.Type().Underlying()
				if _, isStruct := u.(*types.Struct); isStruct {
					return true // fields reported individually above
				}
				if holdsMessagePtr(u) {
					pass.Reportf(n.Pos(),
						"type %s is a durable container of *message.Message; key it by message.Ref instead", n.Name.Name)
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break // x, y = f() — tuple RHS is never a bare pointer
					}
					switch ast.Unparen(lhs).(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
					default:
						continue
					}
					tv, ok := pass.TypesInfo.Types[n.Rhs[i]]
					if !ok || tv.IsNil() || !isMessagePtr(tv.Type) {
						continue
					}
					pass.Reportf(n.Pos(),
						"storing a *message.Message into %s outlives the call; pass a message.Ref and resolve it with Pool.At at use",
						exprString(pass.Fset, lhs))
				}
			}
			return true
		})
	}
}

// isMessagePtr reports whether t is exactly *message.Message.
func isMessagePtr(t types.Type) bool {
	p, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(p.Elem()).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == modulePath+"/internal/message" &&
		named.Obj().Name() == "Message"
}

// holdsMessagePtr reports whether a value of type t durably contains a
// *message.Message: directly, or inside slices, arrays, maps, channels or
// pointers. Named element types are not descended into — their own
// declarations are the right place to report — and function types are
// skipped (a callback parameter is call-local).
func holdsMessagePtr(t types.Type) bool {
	switch u := types.Unalias(t).(type) {
	case *types.Pointer:
		return isMessagePtr(u) || holdsMessagePtrShallow(u.Elem())
	case *types.Slice:
		return holdsMessagePtr(u.Elem())
	case *types.Array:
		return holdsMessagePtr(u.Elem())
	case *types.Map:
		return holdsMessagePtr(u.Key()) || holdsMessagePtr(u.Elem())
	case *types.Chan:
		return holdsMessagePtr(u.Elem())
	}
	return false
}

// holdsMessagePtrShallow continues the traversal one pointer level down
// without re-treating the pointer itself as a candidate (so **Message and
// *[]*Message are caught, but a pointer to a named struct is left to that
// struct's own declaration).
func holdsMessagePtrShallow(t types.Type) bool {
	switch u := types.Unalias(t).(type) {
	case *types.Slice, *types.Array, *types.Map, *types.Chan:
		return holdsMessagePtr(u)
	}
	return false
}
