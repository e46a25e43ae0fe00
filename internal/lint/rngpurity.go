package lint

import (
	"go/ast"
	"strconv"
)

// RNGPurity forbids ambient entropy anywhere under internal/ except
// internal/rng. All randomness must flow through the namespaced split
// streams (rng.Split), which is what makes per-router draws independent of
// scheduling and worker count; a stray math/rand call or wall-clock read
// silently decouples a run from its seed.
//
// Banned: importing math/rand, math/rand/v2 or crypto/rand, and calling
// time.Now / time.Since / time.Until or os.Getpid / os.Getppid /
// os.Environ. (time.Duration arithmetic, timers in CLIs under cmd/, and
// test files are all out of scope.)
var RNGPurity = &Analyzer{
	Name: "rngpurity",
	Run:  runRNGPurity,
}

// bannedImports are package imports that smuggle unseeded entropy.
var bannedImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// bannedCalls maps package path -> function names that read ambient
// machine state (wall clock, pid, environment).
var bannedCalls = map[string]map[string]bool{
	"time": {"Now": true, "Since": true, "Until": true},
	"os":   {"Getpid": true, "Getppid": true, "Environ": true},
}

func runRNGPurity(pass *Pass) error {
	path := pass.Pkg.Path()
	if !internalPkg(path) || path == modulePath+"/internal/rng" {
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if bannedImports[p] {
				pass.Reportf(imp.Pos(),
					"import of %s in %s: ambient entropy is forbidden under internal/; draw from a repro/internal/rng split stream instead",
					p, path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcObj(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if names := bannedCalls[fn.Pkg().Path()]; names[fn.Name()] {
				pass.Reportf(call.Pos(),
					"call to %s.%s in %s: ambient entropy is forbidden under internal/; thread cycle counts and seeds explicitly",
					fn.Pkg().Path(), fn.Name(), path)
			}
			return true
		})
	}
	return nil
}
