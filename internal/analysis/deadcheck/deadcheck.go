// Package deadcheck flags package-level funcs, types, vars, consts and
// methods that nothing reads. A mode nobody selects is debt twice over:
// it is read and maintained like live code, and it hides which paths the
// paper's figures and the live engine actually exercise.
//
// The reader set is the whole module, whatever packages the run names, so
// `dscslint ./internal/serve` judges a declaration by the same evidence
// as `dscslint ./...`. Readers are the module's non-test files, the
// non-test files of every nested module whose go.mod replaces this one
// with the checkout (the benchmark harness), and the test files of other
// packages. Liveness is a fixed point, not a use count: a type read only
// by its own unreferenced constructor and methods is flagged with them.
// The roots are main and init functions, blank declarations, the root
// package's exported API and the exported methods its type aliases
// re-export. A method that satisfies an interface lives as long as its
// receiver type. A declaration reached only from its own package's tests
// is reported with a pointer to the _test.go files.
package deadcheck

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"

	"dscs/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "deadcheck",
	Doc:  "flag declarations that no production code, reader module or other package's test reads",
	Run:  run,
}

func run(pass *analysis.Pass) {
	if len(pass.Files) == 0 {
		return
	}
	decls, err := programFor(filepath.Dir(pass.Fset.Position(pass.Files[0].Package).Filename))
	if err != nil {
		pass.Reportf(pass.Files[0].Package, "cannot build the reader set: %v", err)
		return
	}
	for _, f := range pass.Files {
		forEachDecl(f, func(name *ast.Ident, _ []ast.Node) {
			switch d := decls[key(pass.TypesInfo.Defs[name])]; {
			case d == nil || d.state == live:
			case d.state == testOnly:
				pass.Reportf(name.Pos(), "%s is read only by its own package's tests: move it into a _test.go file", d.display)
			default:
				pass.Reportf(name.Pos(), "%s has no reader outside its own declarations: delete it", d.display)
			}
		})
	}
}

type state int

const (
	unread state = iota
	testOnly
	live
)

// A decl is one candidate declaration of the module.
type decl struct {
	pkg     string   // import path of the declaring package
	display string   // "func F", "method T.M", ...
	edges   []string // keys of the candidates its declaration reads
	state   state
}

var (
	cacheMu sync.Mutex
	cache   = map[string]map[string]*decl{}
)

// programFor resolves, once per process, every candidate of the module
// enclosing dir.
func programFor(dir string) (map[string]*decl, error) {
	root := dir
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		if parent := filepath.Dir(root); parent != root {
			root = parent
		} else {
			return nil, fmt.Errorf("no go.mod above %s", dir)
		}
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if decls, ok := cache[root]; ok {
		return decls, nil
	}
	decls, err := build(root)
	if err == nil {
		cache[root] = decls
	}
	return decls, err
}

func build(root string) (map[string]*decl, error) {
	mod, err := readGoMod(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	pkgs, err := analysis.LoadWithTests(root, "./...")
	if err != nil {
		return nil, err
	}
	readers, err := readerModules(root, mod.Module.Path)
	if err != nil {
		return nil, err
	}
	var readerPkgs []*analysis.Package
	for _, dir := range readers {
		ps, err := analysis.Load(dir, "./...")
		if err != nil {
			return nil, err
		}
		readerPkgs = append(readerPkgs, ps...)
	}
	// A read the type checker could not resolve would leave its target
	// looking dead, so a tree that does not check yields no verdicts.
	for _, p := range append(pkgs[:len(pkgs):len(pkgs)], readerPkgs...) {
		if len(p.TypeErrors) > 0 {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, p.TypeErrors[0])
		}
	}

	decls := map[string]*decl{}
	var liveRoots []string
	type testRead struct{ key, owner string }
	var testReads []testRead
	for _, p := range pkgs {
		owner := strings.TrimSuffix(p.ImportPath, "_test")
		for _, f := range p.Files {
			if strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go") {
				for _, k := range usesIn(p.Info, []ast.Node{f}, "") {
					testReads = append(testReads, testRead{k, owner})
				}
				continue
			}
			forEachDecl(f, func(name *ast.Ident, body []ast.Node) {
				obj := p.Info.Defs[name]
				k := key(obj)
				reads := usesIn(p.Info, body, k)
				if k == "" || name.Name == "init" || (f.Name.Name == "main" && name.Name == "main") {
					liveRoots = append(liveRoots, reads...)
					return
				}
				decls[k] = &decl{pkg: p.ImportPath, display: displayName(obj), edges: reads}
				if p.ImportPath == mod.Module.Path && obj.Exported() && (receiver(obj) == nil || receiver(obj).Exported()) {
					liveRoots = append(liveRoots, k)
				}
			})
		}
		if p.ImportPath == mod.Module.Path {
			liveRoots = append(liveRoots, aliasMethods(p.Types)...)
		}
	}
	for _, p := range readerPkgs {
		for _, obj := range p.Info.Uses {
			liveRoots = append(liveRoots, key(obj))
		}
	}
	var testRoots []string
	for _, r := range testReads {
		if d := decls[r.key]; d != nil && d.pkg == r.owner {
			testRoots = append(testRoots, r.key)
		} else {
			liveRoots = append(liveRoots, r.key)
		}
	}
	addInterfaceEdges(decls, pkgs)
	resolve(decls, liveRoots, testRoots)
	return decls, nil
}

// resolve marks every candidate reachable from the live roots live, then
// every candidate reachable only from its own package's tests test-only.
// A test-only declaration belongs in its package's _test.go files, where
// its reads of other packages are other-package test reads; those become
// live roots, and the two passes repeat to a fixed point.
func resolve(decls map[string]*decl, liveRoots, testRoots []string) {
	for {
		for len(liveRoots) > 0 {
			d := decls[liveRoots[len(liveRoots)-1]]
			liveRoots = liveRoots[:len(liveRoots)-1]
			if d != nil && d.state != live {
				d.state = live
				liveRoots = append(liveRoots, d.edges...)
			}
		}
		stack := append([]string(nil), testRoots...)
		for len(stack) > 0 {
			d := decls[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			if d == nil || d.state != unread {
				continue
			}
			d.state = testOnly
			for _, e := range d.edges {
				switch t := decls[e]; {
				case t == nil || t.state == live:
				case t.pkg == d.pkg:
					stack = append(stack, e)
				default:
					liveRoots = append(liveRoots, e)
				}
			}
		}
		if len(liveRoots) == 0 {
			return
		}
	}
}

// addInterfaceEdges makes each method that satisfies an interface a read
// of its receiver type. The interfaces are every named interface of the
// loaded packages and their imports, and every interface type the module
// spells, outside test files: an interface a test declares reads its
// methods for that test alone.
func addInterfaceEdges(decls map[string]*decl, pkgs []*analysis.Package) {
	var ifaces []*types.Interface
	seenIface, seenPkg := map[*types.Interface]bool{}, map[*types.Package]bool{}
	addIface := func(fset *token.FileSet, pos token.Pos, t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if ok && it.NumMethods() > 0 && !seenIface[it] && !strings.HasSuffix(fset.Position(pos).Filename, "_test.go") {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	var walk func(*token.FileSet, *types.Package)
	walk = func(fset *token.FileSet, tp *types.Package) {
		if seenPkg[tp] {
			return
		}
		seenPkg[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(fset, tn.Pos(), tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(fset, imp)
		}
	}
	for _, p := range pkgs {
		addIface(p.Fset, token.NoPos, types.Universe.Lookup("error").Type())
		walk(p.Fset, p.Types)
		for expr, tv := range p.Info.Types {
			if tv.IsType() {
				addIface(p.Fset, expr.Pos(), tv.Type)
			}
		}
	}
	for _, p := range pkgs {
		for _, name := range p.Types.Scope().Names() {
			tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || decls[key(tn)] == nil {
				continue
			}
			d, named := decls[key(tn)], tn.Type().(*types.Named)
			if named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for _, it := range ifaces {
				if mset.Len() < it.NumMethods() || !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					d.edges = append(d.edges, key(mset.Lookup(m.Pkg(), m.Name()).Obj()))
				}
			}
		}
	}
}

// aliasMethods returns the exported methods a root-package type alias
// re-exports: the alias makes them the module's public API.
func aliasMethods(root *types.Package) []string {
	var out []string
	for _, name := range root.Scope().Names() {
		tn, ok := root.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() || !tn.Exported() {
			continue
		}
		mset := types.NewMethodSet(types.NewPointer(types.Unalias(tn.Type())))
		for i := 0; i < mset.Len(); i++ {
			if obj := mset.At(i).Obj(); obj.Exported() {
				out = append(out, key(obj))
			}
		}
	}
	return out
}

// forEachDecl calls fn for every package-level name a file declares, with
// the syntax its declaration reads. A const spec that repeats the previous
// spec's implicit type and value reads that spec's syntax.
func forEachDecl(f *ast.File, fn func(name *ast.Ident, body []ast.Node)) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			fn(d.Name, []ast.Node{d})
		case *ast.GenDecl:
			var implicit []ast.Node
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					fn(s.Name, []ast.Node{s})
				case *ast.ValueSpec:
					var body []ast.Node
					if s.Type != nil {
						body = append(body, s.Type)
					}
					for _, v := range s.Values {
						body = append(body, v)
					}
					if d.Tok == token.CONST && len(s.Values) == 0 {
						body = implicit
					}
					implicit = body
					for _, name := range s.Names {
						fn(name, body)
					}
				}
			}
		}
	}
}

// usesIn returns the candidate keys the syntax reads, other than self.
func usesIn(info *types.Info, body []ast.Node, self string) []string {
	var out []string
	for _, n := range body {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if k := key(info.Uses[id]); k != "" && k != self {
					out = append(out, k)
				}
			}
			return true
		})
	}
	return out
}

// key names a package-level object — "path.Name" — or a method of a named
// type — "path.Type.Method" — and is "" for anything else (locals, fields,
// interface methods, the universe). Keys are strings because one
// declaration is type-checked several times: from source with its
// package's tests, and from export data in each importer.
func key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || obj.Name() == "_" {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		tn := receiver(fn)
		if tn == nil || types.IsInterface(tn.Type()) {
			return ""
		}
		return fn.Pkg().Path() + "." + tn.Name() + "." + fn.Name()
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// receiver returns the named type a method is declared on, nil for
// anything else.
func receiver(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := fn.Origin().Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

func displayName(obj types.Object) string {
	if tn := receiver(obj); tn != nil {
		return "method " + tn.Name() + "." + obj.Name()
	}
	// ObjectString leads with the object's kind: func, type, var or const.
	return strings.Fields(types.ObjectString(obj, nil))[0] + " " + obj.Name()
}

// readerModules finds the nested modules under root whose go.mod replaces
// modPath with root itself: code that builds against this checkout.
func readerModules(root, modPath string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		if name := e.Name(); e.IsDir() && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		if e.Name() != "go.mod" {
			return nil
		}
		mod, err := readGoMod(path)
		if err != nil {
			return err
		}
		for _, r := range mod.Replace {
			if r.Old.Path == modPath && filepath.Join(filepath.Dir(path), r.New.Path) == root {
				out = append(out, filepath.Dir(path))
			}
		}
		return nil
	})
	return out, err
}

// goMod is the subset of `go mod edit -json` output deadcheck reads.
type goMod struct {
	Module  struct{ Path string }
	Replace []struct{ Old, New struct{ Path string } }
}

func readGoMod(path string) (*goMod, error) {
	out, err := exec.Command("go", "mod", "edit", "-json", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go mod edit -json %s: %v", path, err)
	}
	mod := new(goMod)
	return mod, json.Unmarshal(out, mod)
}
