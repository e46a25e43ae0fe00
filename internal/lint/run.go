package lint

import (
	"fmt"
	"go/ast"
)

// Run executes the analyzers over the packages, applies //simlint:ignore
// suppression, and returns position-sorted diagnostics. A non-nil error
// means an analyzer itself failed, not that it found something.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	filesByName := map[string][]*ast.File{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			filesByName[name] = append(filesByName[name], f)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	return suppress(pkgs[0].Fset, filesByName, diags), nil
}
