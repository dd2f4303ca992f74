// Package analysis is a self-contained miniature of the go/analysis
// framework: named analyzers run over type-checked packages and report
// position-tagged diagnostics, subject to //dscslint source directives.
//
// The scheduler core's correctness rests on disciplines the compiler
// cannot see — clock injection (sims must never read wall time), per-op
// split-stream RNG determinism, never blocking while holding a pool
// lock, and pre-resolved hot-path telemetry. Each of those caused a
// real bug in PRs 4–8 and was, until this package, enforced only by
// reviewer memory. The analyzers under internal/analysis/... make them
// machine-checked; cmd/dscslint bundles them into a multichecker that
// CI runs beside staticcheck.
//
// The framework is stdlib-only on purpose: the build environment has no
// module proxy, so golang.org/x/tools (go/analysis, go/packages, SSA)
// is unavailable. Packages are loaded with `go list -export` plus
// go/parser and go/types (see load.go), and the lock analysis is an AST
// region analysis rather than SSA reachability — the covered bug
// classes are pinned by analysistest fixtures either way.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the analyzer's identifier — the name //dscslint:allow
	// directives refer to.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Packages restricts the analyzer to packages whose import path
	// equals, or lives under, one of these prefixes. Empty means every
	// package.
	Packages []string
	// Run inspects one package through the Pass and reports findings.
	Run func(*Pass)
}

// AppliesTo reports whether the analyzer is in scope for a package.
func (a *Analyzer) AppliesTo(importPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass hands one type-checked package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dirs holds the package's parsed //dscslint directives; Reportf
	// consults it so allowed findings never surface.
	Dirs *Directives

	diags []Diagnostic
}

// Reportf records a finding at pos unless a //dscslint:allow directive
// for this analyzer covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Dirs != nil && p.Dirs.Allowed(p.Analyzer.Name, position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Callee resolves the object a call statically invokes: a *types.Func
// for ordinary function and method calls, nil for calls through
// function-typed values, built-ins, and type conversions.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := p.TypesInfo.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := p.TypesInfo.Selections[f]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Qualified identifier: pkg.Func.
		if fn, ok := p.TypesInfo.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// IsPkgFunc reports whether call statically invokes the package-level
// function pkgPath.name (methods never match).
func (p *Pass) IsPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	fn := p.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
