// cache.go is the compiled-program cache behind the concurrent serving
// path: compilation is deterministic for a (model, batch, DSA config,
// options) tuple, so the toolchain memoizes programs process-wide with
// singleflight semantics — when many cold invocations of the same function
// arrive together, exactly one goroutine compiles and the rest wait for its
// result instead of recompiling.
package compiler

import (
	"fmt"
	"sync"

	"dscs/internal/dsa"
	"dscs/internal/isa"
	"dscs/internal/model"
)

// cacheKey fingerprints one compilation. dsa.Config and Options are flat
// value types, so %+v is a faithful fingerprint; the graph is identified by
// name plus shape invariants in case two graphs share a name.
func cacheKey(g *model.Graph, batch int, cfg dsa.Config, opts Options) string {
	return fmt.Sprintf("%s/%d/%d/%d|%+v|%+v", g.Name, len(g.Layers), g.FLOPs(), batch, cfg, opts)
}

// flight is one cache slot: the once gates the single compilation, after
// which prog/err are immutable.
type flight struct {
	once sync.Once
	prog *isa.Program
	err  error
}

// programCache is the process-wide compiled-program cache.
var programCache sync.Map // cacheKey -> *flight

// CompileCached is Compile behind the program cache: the first caller for a
// (model, batch, config, options) tuple compiles; concurrent and later
// callers share the result. The returned program is shared — callers must
// treat it as immutable (the simulator does).
func CompileCached(g *model.Graph, batch int, cfg dsa.Config, opts Options) (*isa.Program, error) {
	v, _ := programCache.LoadOrStore(cacheKey(g, batch, cfg, opts), &flight{})
	f := v.(*flight)
	f.once.Do(func() {
		f.prog, f.err = Compile(g, batch, cfg, opts)
	})
	return f.prog, f.err
}
