// dscslint is the scheduler core's invariant multichecker: it bundles
// the internal/analysis suite — clockcheck (clock injection), rngcheck
// (split-stream RNG determinism), lockcheck (no blocking under a pool
// lock), hotpathcheck (no per-op label/map allocation on annotated hot
// paths), deadcheck (no declaration without a reader outside its own
// package's tests) — and runs it over the module the way `go vet` would,
// exiting nonzero when any invariant is violated. CI runs it beside
// staticcheck; see ARCHITECTURE.md's "Enforced invariants" table for
// what each analyzer guards and which runtime harness backs it up.
//
// Usage:
//
//	dscslint [-github] [-list] [packages]
//
// Packages default to ./... relative to the current directory; deadcheck
// judges them by the readers of the whole module whatever they are. -github
// re-renders findings as GitHub Actions workflow commands so they land
// as annotations on the PR diff (auto-enabled under GITHUB_ACTIONS).
package main

import (
	"flag"
	"fmt"
	"os"

	"dscs/internal/analysis"
	"dscs/internal/analysis/clockcheck"
	"dscs/internal/analysis/deadcheck"
	"dscs/internal/analysis/hotpathcheck"
	"dscs/internal/analysis/lockcheck"
	"dscs/internal/analysis/rngcheck"
)

var suite = []*analysis.Analyzer{
	clockcheck.Analyzer,
	rngcheck.Analyzer,
	lockcheck.Analyzer,
	hotpathcheck.Analyzer,
	deadcheck.Analyzer,
}

func main() {
	github := flag.Bool("github", os.Getenv("GITHUB_ACTIONS") == "true",
		"emit findings as GitHub Actions annotations")
	list := flag.Bool("list", false, "list the suite's analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dscslint:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dscslint:", err)
		os.Exit(2)
	}
	broken := false
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			broken = true
			fmt.Fprintf(os.Stderr, "dscslint: %s: %v\n", p.ImportPath, terr)
		}
	}
	if broken {
		// Findings over a half-checked tree mislead more than they help.
		os.Exit(2)
	}

	diags := analysis.Run(pkgs, suite)
	for _, d := range diags {
		if *github {
			fmt.Println(analysis.GitHubAnnotation(d, cwd))
		} else {
			fmt.Println(analysis.Format(d, cwd))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dscslint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
