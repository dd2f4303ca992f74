package model

import (
	"sync"
	"testing"
)

// walk sums the layers directly, the way the totals are defined.
func walk(g *Graph) (params, flops, activation int64) {
	for _, l := range g.Layers {
		params += l.WeightElems()
		flops += l.FLOPs()
		activation += l.OutputElems()
	}
	return params, flops, activation
}

func checkTotals(t *testing.T, g *Graph) {
	t.Helper()
	p, f, a := walk(g)
	if g.Params() != p || g.FLOPs() != f || g.ActivationElems() != a {
		t.Fatalf("%s: totals (%d, %d, %d), walk (%d, %d, %d)",
			g.Name, g.Params(), g.FLOPs(), g.ActivationElems(), p, f, a)
	}
}

// TestTotalsFollowAppends reads the memoized totals between builder
// appends: a memo taken before an append must not survive it.
func TestTotalsFollowAppends(t *testing.T) {
	g := NewGraph("grow", 32, 32, 3)
	checkTotals(t, g)
	g.Conv("c1", 16, 3, 1, 1, ReLU)
	checkTotals(t, g)
	g.GlobalPool("gap")
	checkTotals(t, g)
	g.Dense("fc", 10, NoAct)
	checkTotals(t, g)
	for _, z := range []*Graph{ResNet50(), BERTBaseChatbot(), SSDMobileNetPPE()} {
		checkTotals(t, z)
	}
}

// TestTotalsConcurrentReads derives the totals from many goroutines at
// once; under -race this pins the memo as safe for concurrent readers.
func TestTotalsConcurrentReads(t *testing.T) {
	g := ResNet50()
	p, f, a := walk(g)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g.Params() != p || g.FLOPs() != f || g.ActivationElems() != a {
				t.Error("concurrent totals differ from the walk")
			}
		}()
	}
	wg.Wait()
}
