package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
)

// CanonicalAnalyzers names the full suite for directive validation, so
// an allow directive naming a real analyzer parses even when a single
// analyzer runs in isolation (as the analysistest harness does).
var CanonicalAnalyzers = []string{"clockcheck", "rngcheck", "lockcheck", "hotpathcheck", "deadcheck"}

// Run applies every in-scope analyzer to every package and returns the
// combined findings, sorted by position. Malformed //dscslint
// directives are findings too (attributed to the "dscslint" checker):
// a directive that fails to parse must fail the build, not silently
// stop suppressing.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	names := append([]string(nil), CanonicalAnalyzers...)
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, a := range analyzers {
		if !have[a.Name] {
			have[a.Name] = true
			names = append(names, a.Name)
		}
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		dirs := ParseDirectives(pkg.Fset, pkg.Files, names)
		out = append(out, dirs.Problems...)
		for _, a := range analyzers {
			if !a.AppliesTo(pkg.ImportPath) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Dirs:      dirs,
			}
			a.Run(pass)
			out = append(out, pass.diags...)
		}
	}
	SortDiagnostics(out)
	return out
}

// Format renders one finding for terminal output, with the file path
// made relative to base when possible.
func Format(d Diagnostic, base string) string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", relPath(d.Pos.Filename, base), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// GitHubAnnotation renders one finding as a GitHub Actions workflow
// command, so CI findings land as annotations on the PR diff.
func GitHubAnnotation(d Diagnostic, base string) string {
	// The message portion of a workflow command must escape % \r \n.
	msg := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(d.Message)
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=dscslint/%s::%s",
		relPath(d.Pos.Filename, base), d.Pos.Line, d.Pos.Column, d.Analyzer, msg)
}

func relPath(path, base string) string {
	if base == "" {
		return path
	}
	if rel, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
