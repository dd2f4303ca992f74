package compiler

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"dscs/internal/dsa"
	"dscs/internal/isa"
	"dscs/internal/model"
	"dscs/internal/power"
	"dscs/internal/units"
)

// TestCompileCachedKeysEveryField pins what a cache slot is: a repeat of
// the same (graph, batch, config, options) returns the cached program, and
// changing any one of them compiles a program of its own, equal to
// Compile's.
func TestCompileCachedKeysEveryField(t *testing.T) {
	g := model.ResNet18Moderation()
	cfg := dsa.PaperOptimal()
	renamed := model.ResNet18Moderation()
	renamed.Name += "-copy"
	noFusion := Options{DisableFusion: true}
	hbm := cfg
	hbm.DRAM = power.HBM2
	single := cfg
	single.DoubleBuffered = false
	named := cfg
	named.Name += "-b"

	type call struct {
		name  string
		g     *model.Graph
		batch int
		cfg   dsa.Config
		opts  Options
	}
	calls := []call{
		{"base", g, 3, cfg, Options{}},
		{"batch", g, 5, cfg, Options{}},
		{"graph name", renamed, 3, cfg, Options{}},
		{"dram", g, 3, hbm, Options{}},
		{"double buffering", g, 3, single, Options{}},
		{"config name", g, 3, named, Options{}},
		{"options", g, 3, cfg, noFusion},
	}
	seen := make(map[*isa.Program]string)
	for _, c := range calls {
		p, err := CompileCached(c.g, c.batch, c.cfg, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if other, dup := seen[p]; dup {
			t.Errorf("%s shares its program with %s", c.name, other)
		}
		seen[p] = c.name
		want, err := Compile(c.g, c.batch, c.cfg, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, want) {
			t.Errorf("%s: cached program differs from Compile's", c.name)
		}
		if again, _ := CompileCached(c.g, c.batch, c.cfg, c.opts); again != p {
			t.Errorf("%s: a repeat compiled again instead of hitting the cache", c.name)
		}
	}
}

// TestCompileCachedConcurrentFirstUse races callers on one new slot: all
// must receive the one program its single compilation produced.
func TestCompileCachedConcurrentFirstUse(t *testing.T) {
	g := model.SSDMobileNetPPE()
	cfg := dsa.PaperOptimal()
	const callers = 8
	progs := make([]*isa.Program, callers)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := CompileCached(g, 11, cfg, Options{})
			if err != nil {
				t.Error(err)
			}
			progs[i] = p
		}()
	}
	wg.Wait()
	for i, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatalf("caller %d got program %p, caller 0 got %p", i, p, progs[0])
		}
	}
}

// TestCompileCachedHitAllocatesNothing pins the warm path: the key is a
// struct built on the stack and a hit makes no slot.
func TestCompileCachedHitAllocatesNothing(t *testing.T) {
	g := model.InceptionV3Clinical()
	cfg := dsa.PaperOptimal()
	if _, err := CompileCached(g, 1, cfg, Options{}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := CompileCached(g, 1, cfg, Options{}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a CompileCached hit allocates %.0f times, want 0", n)
	}
}

// TestCompileCachedNaNClockStaysUncached pins the one key that never
// equals itself: it compiles on every call and leaves no slot behind.
func TestCompileCachedNaNClockStaysUncached(t *testing.T) {
	cfg := dsa.PaperOptimal()
	cfg.Freq = units.Frequency(math.NaN())
	slots := func() int {
		programCache.mu.Lock()
		defer programCache.mu.Unlock()
		return len(programCache.flights)
	}
	before := slots()
	for range 3 {
		_, _ = CompileCached(model.ResNet18Moderation(), 1, cfg, Options{})
	}
	if after := slots(); after != before {
		t.Errorf("NaN-clock compilations left %d slots, want none", after-before)
	}
}

// BenchmarkCompileCached times a cache hit, the warm path of every
// accelerated inference's first call on a platform.
func BenchmarkCompileCached(b *testing.B) {
	g := model.ResNet50()
	cfg := dsa.PaperOptimal()
	if _, err := CompileCached(g, 1, cfg, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := CompileCached(g, 1, cfg, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
