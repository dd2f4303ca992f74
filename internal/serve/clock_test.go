package serve

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"dscs/internal/analysis"
)

// TestOneClockFile pins the package's clock boundary: clock.go is the only
// non-test file exempt from clockcheck, by a file-scoped allow above its
// package clause, and no other file carries a clockcheck allow of any
// scope. dscslint catches a stray wall-clock read; only this test catches
// a second exemption that would hide one.
func TestOneClockFile(t *testing.T) {
	allow := analysis.DirectivePrefix + "allow clockcheck"
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var fileScoped []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, group := range f.Comments {
			for _, c := range group.List {
				if !strings.HasPrefix(c.Text, allow) {
					continue
				}
				if c.Pos() < f.Package {
					fileScoped = append(fileScoped, name)
				} else {
					t.Errorf("%s: line-scoped clockcheck allow at %s; route the read through clock.go", name, fset.Position(c.Pos()))
				}
			}
		}
	}
	if len(fileScoped) != 1 || fileScoped[0] != "clock.go" {
		t.Errorf("files with a file-scoped clockcheck allow = %v, want exactly [clock.go]", fileScoped)
	}
}
