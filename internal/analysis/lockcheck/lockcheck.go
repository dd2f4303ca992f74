// Package lockcheck enforces lock-hold hygiene in the serve core: no
// blocking operation — channel send/receive/select, sync.WaitGroup.Wait,
// time.Sleep — and no call through a function-typed value (a callback
// whose latency and lock set the core cannot see) may execute while a
// sync.Mutex is held. PR 8's dead-pool livelock was exactly this bug: a
// worker spun while holding p.mu, starving every rescuer that needed the
// lock. The engine's discipline is to drop the pool lock before doing
// anything that can wait (stealInto's unlock/relock dance, executing
// outside the lock, sync.Cond parking — Cond.Wait releases its mutex and
// is deliberately not flagged).
//
// The analysis is a per-function AST region walk, not SSA: a region
// opens at X.Lock()/X.RLock() (or a TryLock-guarded branch) on any
// expression of type sync.Mutex/sync.RWMutex and closes at the matching
// Unlock; a deferred Unlock keeps the region open to the function's end.
// Branch-local acquisitions stay branch-local, and function literals are
// separate functions (a closure spawned under the lock runs on its own
// stack — unless invoked in place, in which case the region follows it).
// Interprocedural holds (a helper documented "callers hold p.mu") are
// out of AST reach; the runtime -race property harnesses cover that
// layer, as ARCHITECTURE.md's invariants table records.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"dscs/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:     "lockcheck",
	Doc:      "forbid blocking operations and opaque callbacks while a mutex is held",
	Packages: []string{"dscs/internal/serve"},
	Run:      run,
}

func run(pass *analysis.Pass) {
	s := &scanner{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				s.block(fd.Body.List, map[string]bool{})
			}
		}
	}
}

type scanner struct {
	pass *analysis.Pass
}

type lockOp int

const (
	opNone lockOp = iota
	opLock
	opUnlock
	opTryLock
)

// mutexOp classifies a call as a lock-shaped operation on an expression
// of mutex type, returning the lock expression's source spelling as the
// region key ("p.mu", "b.mu", ...).
func (s *scanner) mutexOp(call *ast.CallExpr) (string, lockOp) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	case "TryLock", "TryRLock":
		op = opTryLock
	default:
		return "", opNone
	}
	tv, ok := s.pass.TypesInfo.Types[sel.X]
	if !ok {
		return "", opNone
	}
	t := tv.Type
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", opNone
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return types.ExprString(sel.X), op
	}
	return "", opNone
}

// block walks a statement list in order, tracking the held-mutex set.
// Acquisitions inside a nested branch do not escape it (the walk
// under-approximates rather than report false positives on
// path-dependent locking).
func (s *scanner) block(stmts []ast.Stmt, held map[string]bool) {
	for _, st := range stmts {
		s.stmt(st, held)
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func (s *scanner) stmt(st ast.Stmt, held map[string]bool) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if path, op := s.mutexOp(call); op != opNone {
				switch op {
				case opLock:
					held[path] = true
				case opUnlock:
					delete(held, path)
				}
				return
			}
		}
		s.expr(st.X, held)
	case *ast.DeferStmt:
		if _, op := s.mutexOp(st.Call); op == opUnlock {
			// The region stays open to the function's end; nothing to do.
			return
		}
		// Other deferred calls run at return time with an unknowable
		// lock set; only their argument expressions evaluate now.
		for _, a := range st.Call.Args {
			s.expr(a, held)
		}
	case *ast.GoStmt:
		// The goroutine runs on its own stack without the caller's
		// locks; its argument expressions evaluate here, though.
		for _, a := range st.Call.Args {
			s.expr(a, held)
		}
		if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			s.block(lit.Body.List, map[string]bool{})
		}
	case *ast.SendStmt:
		if len(held) > 0 {
			s.pass.Reportf(st.Arrow, "channel send while holding %s can block the lock's every other user; drop the lock first", heldName(held))
		}
		s.expr(st.Chan, held)
		s.expr(st.Value, held)
	case *ast.SelectStmt:
		if len(held) > 0 {
			s.pass.Reportf(st.Select, "select while holding %s blocks on channel readiness with the lock pinned; drop the lock first", heldName(held))
		}
		for _, clause := range st.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				s.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		// A TryLock-guarded branch holds the mutex inside the branch.
		if call, ok := ast.Unparen(st.Cond).(*ast.CallExpr); ok {
			if path, op := s.mutexOp(call); op == opTryLock {
				inner := copyHeld(held)
				inner[path] = true
				s.block(st.Body.List, inner)
				if st.Else != nil {
					s.stmt(st.Else, copyHeld(held))
				}
				return
			}
		}
		s.expr(st.Cond, held)
		s.block(st.Body.List, copyHeld(held))
		if st.Else != nil {
			s.stmt(st.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		if st.Cond != nil {
			s.expr(st.Cond, held)
		}
		body := copyHeld(held)
		s.block(st.Body.List, body)
		if st.Post != nil {
			s.stmt(st.Post, body)
		}
	case *ast.RangeStmt:
		s.expr(st.X, held)
		if len(held) > 0 {
			if tv, ok := s.pass.TypesInfo.Types[st.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					s.pass.Reportf(st.For, "ranging over a channel while holding %s blocks the lock on every receive; drop the lock first", heldName(held))
				}
			}
		}
		s.block(st.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		if st.Tag != nil {
			s.expr(st.Tag, held)
		}
		for _, clause := range st.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					s.expr(e, held)
				}
				s.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		s.stmt(st.Assign, held)
		for _, clause := range st.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				s.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.BlockStmt:
		s.block(st.List, held)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt, held)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.expr(e, held)
		}
		for _, e := range st.Lhs {
			s.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.expr(e, held)
		}
	case *ast.IncDecStmt:
		s.expr(st.X, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						s.expr(e, held)
					}
				}
			}
		}
	}
}

// blockingCallees are static callees that park the goroutine. Cond.Wait
// is deliberately absent: it releases its associated mutex while parked,
// which is the engine's sanctioned way to wait under p.mu.
var blockingCallees = map[string]string{
	"(*sync.WaitGroup).Wait": "waits on a WaitGroup",
	"time.Sleep":             "sleeps",
}

func (s *scanner) expr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A separate function: runs later, without these locks.
			s.block(n.Body.List, map[string]bool{})
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(held) > 0 {
				s.pass.Reportf(n.OpPos, "channel receive while holding %s can block the lock's every other user; drop the lock first", heldName(held))
			}
		case *ast.CallExpr:
			// An immediately-invoked literal runs here, locks and all.
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				for _, a := range n.Args {
					s.expr(a, held)
				}
				s.block(lit.Body.List, copyHeld(held))
				return false
			}
			if len(held) == 0 {
				return true
			}
			if _, op := s.mutexOp(n); op != opNone {
				// Nested acquisition of a second mutex (the engine's
				// ordered two-pool steal) is a lock-ordering question,
				// not a blocking-callback one; out of scope here.
				return true
			}
			fn := s.pass.Callee(n)
			if fn == nil {
				if s.isDynamicFuncCall(n) {
					s.pass.Reportf(n.Pos(), "call through a function value while holding %s runs an opaque callback under the lock; drop the lock or pre-resolve the work", heldName(held))
				}
				return true
			}
			if why, bad := blockingCallees[fn.FullName()]; bad {
				s.pass.Reportf(n.Pos(), "%s %s while holding %s; drop the lock first", fn.FullName(), why, heldName(held))
			}
		}
		return true
	})
}

// isDynamicFuncCall reports a call whose callee is a function-typed
// value (field, parameter, variable) — not a declared function, method,
// builtin, or type conversion.
func (s *scanner) isDynamicFuncCall(call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	tv, ok := s.pass.TypesInfo.Types[fun]
	if !ok || tv.IsType() || tv.IsBuiltin() {
		return false
	}
	if _, ok := tv.Type.Underlying().(*types.Signature); !ok {
		return false
	}
	// Method values and interface methods resolve to *types.Func via
	// Callee; reaching here means the callee is a plain value.
	return true
}

func heldName(held map[string]bool) string {
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}
