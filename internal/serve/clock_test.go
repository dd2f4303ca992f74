package serve

import (
	"go/ast"
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

// TestClockSeamHasNoSleep pins the seam's surface: clock.go declares
// exactly wallEpoch, now and afterFunc — a virtual clock's epoch, Now and
// At — and no non-test file calls a sleep. Every wait in the package is a
// cond.Wait, a channel receive or an afterFunc callback, so swapping these
// three runs the engine on a virtual clock.
func TestClockSeamHasNoSleep(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "clock.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			declared = append(declared, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declared = append(declared, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declared = append(declared, n.Name)
					}
				}
			}
		}
	}
	if want := "wallEpoch now afterFunc"; strings.Join(declared, " ") != want {
		t.Errorf("clock.go declares %v, want exactly [%s]", declared, want)
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "sleep" {
					t.Errorf("%s: sleep call; wait on a cond, a channel or an afterFunc timer", fset.Position(call.Pos()))
				}
			}
			return true
		})
	}
}
