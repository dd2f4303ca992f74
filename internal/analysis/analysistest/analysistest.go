// Package analysistest runs one analyzer over a checked-in fixture
// package and compares its findings against // want expectations, the
// same contract as golang.org/x/tools' analysistest (reimplemented here
// because the build environment has no module proxy).
//
// A fixture lives in testdata/src/<name>/ beside the analyzer's test.
// Each expected finding is a trailing comment on the offending line:
//
//	x := time.Now() // want `reads wall time`
//
// The quoted text is a regexp matched against the finding's message;
// several expectations may share one line. Findings with no matching
// expectation, and expectations no finding matched, both fail the test
// — fixtures pin the analyzer red AND green.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dscs/internal/analysis"
)

// wantRE extracts the quoted regexps of one // want comment: Go-quoted
// ("...") or raw (`...`) strings, in order.
var wantRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	source  string
	matched bool
}

// Run loads the packages matching the patterns (default ./...) under
// testdata/src/<fixture>, relative to the caller's package directory,
// applies the analyzer, and enforces the // want contract over every
// loaded package. A fixture is one package, or a module of its own when
// it holds a go.mod. Malformed //dscslint directives surface as findings
// of the "dscslint" checker, so directive-parser fixtures use the same
// mechanism.
func Run(t *testing.T, a *analysis.Analyzer, fixture string, patterns ...string) {
	t.Helper()
	pkgs, err := analysis.Load(filepath.Join("testdata", "src", fixture), patterns...)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	var expectations []*expectation
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture %s does not type-check: %v", fixture, terr)
		}
		expectations = append(expectations, collectWants(t, pkg)...)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Fixture packages live under testdata/src and never match a scoped
	// analyzer's Packages prefixes; drop the scope so the analyzer runs.
	scopeFree := *a
	scopeFree.Packages = nil
	diags := analysis.Run(pkgs, []*analysis.Analyzer{&scopeFree})

	for _, d := range diags {
		if !claim(expectations, d) {
			t.Errorf("unexpected finding at %s:%d: %s: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, e := range expectations {
		if !e.matched {
			t.Errorf("no finding matched `%s` expected at %s:%d", e.source, filepath.Base(e.file), e.line)
		}
	}
}

func claim(expectations []*expectation, d analysis.Diagnostic) bool {
	for _, e := range expectations {
		if e.matched || e.file != d.Pos.Filename || e.line != d.Pos.Line {
			continue
		}
		if e.re.MatchString(d.Message) {
			e.matched = true
			return true
		}
	}
	return false
}

func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				// The marker may trail other comment text (a fixture can
				// attach an expectation to a //dscslint: directive comment
				// this way, mirroring x/tools analysistest).
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				text := c.Text[i+len("// want "):]
				pos := pkg.Fset.Position(c.Pos())
				quoted := wantRE.FindAllString(text, -1)
				if len(quoted) == 0 {
					t.Fatalf("%s:%d: malformed // want comment (no quoted regexp)", filepath.Base(pos.Filename), pos.Line)
				}
				for _, q := range quoted {
					src, err := unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad // want string %s: %v", filepath.Base(pos.Filename), pos.Line, q, err)
					}
					re, err := regexp.Compile(src)
					if err != nil {
						t.Fatalf("%s:%d: bad // want regexp %s: %v", filepath.Base(pos.Filename), pos.Line, q, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, source: src})
				}
			}
		}
	}
	return out
}

func unquote(q string) (string, error) {
	if strings.HasPrefix(q, "`") {
		if len(q) < 2 || !strings.HasSuffix(q, "`") {
			return "", fmt.Errorf("unterminated raw string")
		}
		return q[1 : len(q)-1], nil
	}
	return strconv.Unquote(q)
}
