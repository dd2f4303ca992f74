// Package clockcheck enforces clock injection: packages shared between
// the live engine and the discrete-event simulations must never read or
// schedule against wall time. A single time.Now in a sim-shared path
// desynchronizes the virtual clock from the state machine it drives and
// silently breaks every seeded golden; the whole design of
// internal/serve's clock-free core (core.go, lifecycle.go) exists so
// that both clocks drive one implementation.
//
// The live engine's one wall-clock seam, internal/serve/clock.go (engine
// time, timers and sleeps for the whole Engine), is the sanctioned
// exception: it declares it with a file-scoped
//
//	//dscslint:allow clockcheck <reason>
//
// directive above its package clause, which doubles as documentation that
// the file is the wall-clock half. A serve test pins it as the only such
// file in the package.
package clockcheck

import (
	"go/ast"
	"go/types"

	"dscs/internal/analysis"
)

// banned maps time package identifiers to why they are disallowed in
// clock-injected packages. Both calls and bare references are flagged —
// storing time.Now in a clock field is the same leak one step removed.
var banned = map[string]string{
	"Now":       "reads wall time",
	"Since":     "reads wall time",
	"Until":     "reads wall time",
	"Sleep":     "blocks on the wall clock",
	"After":     "schedules on the wall clock",
	"Tick":      "schedules on the wall clock",
	"AfterFunc": "schedules on the wall clock",
	"NewTimer":  "schedules on the wall clock",
	"NewTicker": "schedules on the wall clock",
}

var Analyzer = &analysis.Analyzer{
	Name: "clockcheck",
	Doc:  "forbid wall-clock reads and timers in clock-injected packages",
	Packages: []string{
		"dscs/internal/cluster",
		"dscs/internal/trace",
		"dscs/internal/sched",
		"dscs/internal/scale",
		"dscs/internal/serve",
		"dscs/internal/workflow",
	},
	Run: run,
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			why, bad := banned[fn.Name()]
			if !bad {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s %s in a clock-injected package; take now from the caller's clock, or mark a wall-clock file with //dscslint:allow clockcheck <reason>",
				fn.Name(), why)
			return true
		})
	}
}
