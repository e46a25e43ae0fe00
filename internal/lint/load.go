package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// A Package is one loaded, type-checked unit of analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader type-checks packages from source, each once, and reads their
// imports from the compiler's export data, whose files `go list -deps
// -export` names (building what the cache lacks). The process working
// directory must be inside the module.
//
// An import is thus a different *types.Package from the one Load checks
// from source under the same path. The analyzers match callees and types
// by package path and name ((*types.Func).FullName, Pkg().Path()), never
// by object identity across packages; that is what makes export-data
// imports safe.
type Loader struct {
	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	imp     types.Importer
}

// NewLoader builds a loader; all packages it loads share one FileSet and
// one importer, so each dependency's export data is read once. An import
// no earlier list named (a fixture's, under LoadFiles) is listed on first
// use.
func NewLoader() *Loader {
	l := &Loader{fset: token.NewFileSet(), exports: map[string]string{}}
	l.imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		if l.exports[path] == "" {
			if _, err := l.list(path); err != nil {
				return nil, err
			}
		}
		return os.Open(l.exports[path])
	})
	return l
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
}

// list runs one `go list -deps -export` over the patterns, records every
// listed package's export file, and returns the packages the patterns
// matched (the non-DepOnly ones). Without -e, go list fails on any
// erroneous package, compile errors included.
func (l *Loader) list(patterns ...string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, errb.String())
	}
	var matched []listedPackage
	for dec := json.NewDecoder(&out); ; {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			return matched, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list -json decode: %v", err)
		}
		l.exports[lp.ImportPath] = lp.Export
		if !lp.DepOnly {
			matched = append(matched, lp)
		}
	}
}

// Load resolves the go-list patterns and type-checks every matched
// package's non-test Go files.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.list(patterns...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := l.LoadFiles(lp.ImportPath, files...)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadFiles type-checks an explicit set of Go files as a single package
// under the given import path. Fixture tests use it to make a testdata
// package impersonate a determinism-critical path.
func (l *Loader) LoadFiles(path string, filenames ...string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return &Package{Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}
