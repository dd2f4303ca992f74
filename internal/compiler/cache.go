// cache.go is the compiled-program cache behind the concurrent serving
// path: compilation is deterministic for a (model, batch, DSA config,
// options) tuple, so the toolchain memoizes programs process-wide with
// singleflight semantics — when many cold invocations of the same function
// arrive together, exactly one goroutine compiles and the rest wait for its
// result instead of recompiling.
package compiler

import (
	"math"
	"sync"

	"dscs/internal/dsa"
	"dscs/internal/isa"
	"dscs/internal/model"
)

// cacheKey identifies one compilation. dsa.Config and Options are flat
// comparable values and key as themselves; the graph is identified by name
// plus shape invariants in case two graphs share a name. A hit builds the
// key on the stack and allocates nothing.
type cacheKey struct {
	name   string
	layers int
	flops  int64
	batch  int
	cfg    dsa.Config
	opts   Options
}

// flight is one cache slot: the once gates the single compilation, after
// which prog/err are immutable.
type flight struct {
	once sync.Once
	prog *isa.Program
	err  error
}

// programCache is the process-wide compiled-program cache.
var programCache = struct {
	mu      sync.Mutex
	flights map[cacheKey]*flight
}{flights: make(map[cacheKey]*flight)}

// CompileCached is Compile behind the program cache: the first caller for a
// (model, batch, config, options) tuple compiles; concurrent and later
// callers share the result. The returned program is shared — callers must
// treat it as immutable (the simulator does).
func CompileCached(g *model.Graph, batch int, cfg dsa.Config, opts Options) (*isa.Program, error) {
	if math.IsNaN(float64(cfg.Freq)) {
		// A NaN clock never equals itself, so its key could never be found
		// again: compile it uncached rather than grow the map on every call.
		return Compile(g, batch, cfg, opts)
	}
	key := cacheKey{name: g.Name, layers: len(g.Layers), flops: g.FLOPs(), batch: batch, cfg: cfg, opts: opts}
	programCache.mu.Lock()
	f, ok := programCache.flights[key]
	if !ok {
		f = new(flight)
		programCache.flights[key] = f
	}
	programCache.mu.Unlock()
	f.once.Do(func() {
		f.prog, f.err = Compile(g, batch, cfg, opts)
	})
	return f.prog, f.err
}
