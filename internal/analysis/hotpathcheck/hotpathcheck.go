// Package hotpathcheck enforces allocation discipline on the
// submit→dispatch hot path: inside any function reachable from a
// //dscslint:hotpath root, it flags fmt formatting calls, map
// allocations, and non-constant string concatenation — the three
// spellings behind every "construct a telemetry label per operation"
// regression. PR 6 bought a 6.7× submit-rate win by pre-resolving
// counter handles at pool construction and pooling request/batch
// allocations; a single fmt.Sprintf label in a dispatch loop silently
// undoes it, and nothing but this analyzer notices (a throughput bound
// catches only a cliff, long after the discipline eroded).
//
// Roots are explicit: annotate a function with //dscslint:hotpath in its
// doc comment (or trailing its declaration line). Reachability is the
// static intrapackage call graph from those roots — calls through
// interfaces and closures don't propagate, so packages on the path
// (sched's queue ops and policies, metrics' digest ingestion) annotate
// their own entry points. A cold sub-path inside a hot function (error
// construction, a once-per-series miss) carries a line-scoped
// //dscslint:allow hotpathcheck <reason>; a call on such a line is a cold
// edge, so its callee does not become hot through it.
package hotpathcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dscs/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotpathcheck",
	Doc:  "forbid fmt formatting, map allocation, and label concatenation in //dscslint:hotpath-rooted call paths",
	Run:  run,
}

func run(pass *analysis.Pass) {
	funcs := map[types.Object]*ast.FuncDecl{}
	var order []types.Object
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				funcs[obj] = fd
				order = append(order, obj)
			}
		}
	}

	// rootOf maps every reachable function to the annotated root that
	// reaches it (first found wins; any witness will do for the message).
	rootOf := map[types.Object]string{}
	var queue []types.Object
	for _, obj := range order {
		fd := funcs[obj]
		if isRoot(pass, fd) {
			rootOf[obj] = displayName(fd)
			queue = append(queue, obj)
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		fd := funcs[obj]
		walkHot(fd.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			callee := pass.Callee(call)
			if callee == nil {
				return
			}
			if pass.Dirs != nil && pass.Dirs.Allowed(pass.Analyzer.Name, pass.Fset.Position(call.Pos())) {
				return
			}
			target, ok := funcs[types.Object(callee)]
			if !ok {
				return
			}
			tobj := pass.TypesInfo.Defs[target.Name]
			if _, seen := rootOf[tobj]; !seen {
				rootOf[tobj] = rootOf[obj]
				queue = append(queue, tobj)
			}
		})
	}

	for obj, root := range rootOf {
		checkFunc(pass, funcs[obj], root)
	}
}

// isRoot reports a //dscslint:hotpath annotation on the declaration: in
// its doc comment, or trailing the func line.
func isRoot(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if strings.HasPrefix(c.Text, analysis.DirectivePrefix+"hotpath") {
				return true
			}
		}
	}
	pos := pass.Fset.Position(fd.Pos())
	return pass.Dirs != nil && pass.Dirs.Hotpath(pos.Filename, pos.Line)
}

func displayName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		return "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

// walkHot visits the function body without descending into function
// literals: a closure built on the hot path runs on its own schedule
// (and building one is a distinct concern from this analyzer's three
// allocation classes).
func walkHot(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, root string) {
	name := displayName(fd)
	where := "hot-path function " + name
	if name != root {
		where += " (reachable from //dscslint:hotpath root " + root + ")"
	}
	// concats tracks nested string-concat nodes already covered by an
	// outer finding, so a+b+c reports once.
	concats := map[ast.Node]bool{}
	walkHot(fd.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if callee := pass.Callee(n); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
				pass.Reportf(n.Pos(), "fmt.%s formats (and allocates) in %s; pre-resolve the label or build the key without fmt", callee.Name(), where)
				return
			}
			// make(map[...]...) — builtin make of a map type.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
				if tv, ok := pass.TypesInfo.Types[n.Args[0]]; ok && tv.IsType() {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "map allocation in %s; allocate at construction and reuse", where)
					}
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[n]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map literal allocates in %s; allocate at construction and reuse", where)
				}
			}
		case *ast.BinaryExpr:
			if n.Op != token.ADD || concats[n] {
				return
			}
			tv, ok := pass.TypesInfo.Types[n]
			if !ok || tv.Value != nil {
				return // not typed here, or constant-folded at compile time
			}
			basic, isBasic := tv.Type.Underlying().(*types.Basic)
			if !isBasic || basic.Info()&types.IsString == 0 {
				return
			}
			// Cover the nested adds so the chain reports once, at its head.
			ast.Inspect(n, func(inner ast.Node) bool {
				if b, ok := inner.(*ast.BinaryExpr); ok && b.Op == token.ADD {
					concats[b] = true
				}
				return true
			})
			pass.Reportf(n.Pos(), "string concatenation builds a label/key at runtime in %s; pre-resolve it or use a composite (struct) key", where)
		}
	})
}
