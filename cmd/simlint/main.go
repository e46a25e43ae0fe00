// Command simlint runs the first-party analyzer suite (internal/lint) that
// statically enforces the simulator's determinism and arena contracts:
// maprange, rngpurity, reflife, phasepurity.
//
// It loads the named packages itself (go list + the source importer):
//
//	go run ./cmd/simlint ./...
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("simlint", flag.ExitOnError)
	var (
		list    = fs.Bool("list", false, "list the analyzers and exit")
		only    = fs.String("only", "", "comma-separated subset of analyzers to run")
		pkgpath = fs.String("pkgpath", "", "treat the arguments as Go files forming one package with this import path (for fixtures and injection tests)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: simlint [flags] [packages]\n\nStatically enforces the determinism, arena and registry contracts.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(n)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		for n := range keep {
			fmt.Fprintf(os.Stderr, "simlint: unknown analyzer %q\n", n)
			return 2
		}
		analyzers = sel
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := lint.NewLoader()
	var (
		pkgs []*lint.Package
		err  error
	)
	if *pkgpath != "" {
		var pkg *lint.Package
		pkg, err = loader.LoadFiles(*pkgpath, patterns...)
		pkgs = []*lint.Package{pkg}
	} else {
		pkgs, err = loader.Load(patterns...)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 2
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
