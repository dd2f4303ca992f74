package analysis

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
	"strings"
)

// A Package is one loaded, type-checked analysis target.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors collects soft type-check problems. The analyzers run
	// anyway — a half-checked package still yields useful findings —
	// but the driver surfaces them so a broken tree is never silently
	// "clean".
	TypeErrors []error
}

// listEntry is the subset of `go list -json` output the loader reads.
type listEntry struct {
	ImportPath  string
	Dir         string
	Export      string
	GoFiles     []string
	CgoFiles    []string
	TestGoFiles []string
	Standard    bool
	DepOnly     bool
	ForTest     string
	ImportMap   map[string]string
	Error       *struct{ Err string }
}

// listFields is the -json field list matching listEntry.
const listFields = "-json=ImportPath,Dir,Export,GoFiles,CgoFiles,TestGoFiles,Standard,DepOnly,ForTest,ImportMap,Error"

// Load type-checks the packages matching the go list patterns, rooted at
// dir (a directory inside the module). Dependencies resolve through the
// gc export data `go list -export` places in the build cache, so loading
// needs no module proxy and no golang.org/x/tools. Only non-test Go
// files are loaded — the invariants the analyzers enforce guard
// production code paths.
func Load(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, false, patterns)
}

// LoadWithTests is Load with the test files: each package comes back with
// its _test.go files of the same package added, and each external test
// package comes back as "<path>_test", type-checked against the test
// build of its dependencies (so it sees export_test.go). Callers tell test
// files apart by their _test.go suffix.
func LoadWithTests(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, true, patterns)
}

func load(dir string, tests bool, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"-deps", "-export", listFields}
	if tests {
		args = append(args, "-test")
	}
	entries, err := goList(dir, append(args, patterns...)...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	index := indexEntries(entries)
	shared := exportImporter(fset, index, nil)
	var pkgs []*Package
	for _, t := range entries {
		path, names, imp := t.ImportPath, t.GoFiles, shared
		switch {
		case t.DepOnly || t.Standard:
			continue
		case t.ForTest == "" && !strings.HasSuffix(path, ".test"):
			if tests {
				names = append(names[:len(names):len(names)], t.TestGoFiles...)
			}
		case strings.HasPrefix(path, t.ForTest+"_test ["):
			path, imp = t.ForTest+"_test", exportImporter(fset, index, t.ImportMap)
		default:
			continue
		}
		p, err := checkEntry(fset, imp, t, path, names)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// goList runs `go list -e` in dir and decodes its JSON stream.
func goList(dir string, args ...string) ([]*listEntry, error) {
	cmd := exec.Command("go", append([]string{"list", "-e"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", args, err, stderr.String())
	}
	var entries []*listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		e := new(listEntry)
		if err := dec.Decode(e); err == io.EOF {
			return entries, nil
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		entries = append(entries, e)
	}
}

func indexEntries(entries []*listEntry) map[string]*listEntry {
	index := make(map[string]*listEntry, len(entries))
	for _, e := range entries {
		index[e.ImportPath] = e
	}
	return index
}

// exportImporter resolves imports through the export data go list
// reported, mapping each path through importMap first: an external test
// imports the test variants of its dependencies this way, and the
// ImportMap of an unvendored module's ordinary package is empty.
func exportImporter(fset *token.FileSet, index map[string]*listEntry, importMap map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		e, ok := index[path]
		if !ok || e.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e.Export)
	})
}

func parseAll(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// checkEntry parses and type-checks the named files of one go list entry
// as the package path.
func checkEntry(fset *token.FileSet, imp types.Importer, t *listEntry, path string, names []string) (*Package, error) {
	if t.Error != nil && len(names) == 0 {
		return nil, fmt.Errorf("analysis: %s: %s", t.ImportPath, t.Error.Err)
	}
	if len(t.CgoFiles) > 0 {
		return nil, fmt.Errorf("analysis: %s uses cgo, which the loader does not support", t.ImportPath)
	}
	files, err := parseAll(fset, t.Dir, names)
	if err != nil {
		return nil, err
	}
	return checkParsed(fset, imp, path, t.Dir, files), nil
}

func checkParsed(fset *token.FileSet, imp types.Importer, path, dir string, files []*ast.File) *Package {
	p := &Package{
		ImportPath: path,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	p.Types, _ = conf.Check(path, fset, files, p.Info)
	return p
}
