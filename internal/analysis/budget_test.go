package analysis_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"dscs/internal/analysis"
)

// allowBudget is the number of //dscslint:allow directives the tree may
// carry. An exception is a hole in an invariant; a change that needs a
// new one must retire another or argue for raising this number.
const allowBudget = 12

// TestAllowDirectiveBudget counts the allow directives in the
// repository's Go sources, fixtures under testdata excluded, and fails
// when they exceed the budget.
func TestAllowDirectiveBudget(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var found []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (path != root && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range f.Comments {
			for _, c := range group.List {
				if strings.HasPrefix(c.Text, analysis.DirectivePrefix+"allow") {
					found = append(found, fset.Position(c.Pos()).String())
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) > allowBudget {
		t.Errorf("%d //dscslint:allow directives, budget %d:\n%s", len(found), allowBudget, strings.Join(found, "\n"))
	}
}
