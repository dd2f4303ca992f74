package faas

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"dscs/internal/csd"
	"dscs/internal/objstore"
	"dscs/internal/platform"
	"dscs/internal/sim"
	"dscs/internal/ssd"
	"dscs/internal/workload"
)

func testStore(t testing.TB) *objstore.Store {
	t.Helper()
	var nodes []*objstore.Node
	for i := 0; i < 4; i++ {
		d, err := ssd.New(ssd.SmartSSDClass())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &objstore.Node{
			ID: fmt.Sprintf("ssd-%d", i), Kind: objstore.PlainSSD, SSD: d,
		})
	}
	for i := 0; i < 2; i++ {
		d, err := csd.New(csd.Default())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &objstore.Node{
			ID: fmt.Sprintf("dscs-%d", i), Kind: objstore.DSCSDrive, CSD: d,
		})
	}
	s, err := objstore.New(objstore.Default(), nodes, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInvokePathsAllPlatforms(t *testing.T) {
	store := testStore(t)
	b := workload.AssetDamage()
	opt := Options{Quantile: 0.5}
	var baseline time.Duration
	for _, p := range platform.All() {
		r := NewRunner(store, p)
		res, err := r.Invoke(b, opt)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Total() <= 0 || res.Energy <= 0 {
			t.Fatalf("%s: degenerate result %+v", p.Name(), res)
		}
		switch p.Class() {
		case platform.Traditional:
			if res.Breakdown.RemoteRead <= 0 || res.Breakdown.RemoteWrite <= 0 {
				t.Errorf("%s: traditional path must pay remote IO", p.Name())
			}
			if res.Breakdown.Driver != 0 {
				t.Errorf("%s: traditional path has no in-storage driver", p.Name())
			}
		case platform.NearStorage:
			if res.Breakdown.RemoteWrite > 0 {
				t.Errorf("%s: near-storage f1/f2 must not write remotely", p.Name())
			}
			if res.Breakdown.DeviceIO <= 0 {
				t.Errorf("%s: near-storage path must pay local device IO", p.Name())
			}
		case platform.InStorageDSA:
			if res.Breakdown.Driver <= 0 {
				t.Errorf("%s: DSCS path must pay the driver", p.Name())
			}
			if res.Breakdown.DeviceIO <= 0 {
				t.Errorf("%s: DSCS path must pay P2P staging", p.Name())
			}
			// Only f3 reads remotely.
			if res.Breakdown.RemoteRead >= baseline/2 {
				t.Errorf("%s: remote reads should collapse to f3's", p.Name())
			}
		}
		if p.Class() == platform.Traditional && p.Name() == "Baseline (CPU)" {
			baseline = res.Breakdown.RemoteRead
		}
	}
}

func TestInvokeDeterministicAtQuantile(t *testing.T) {
	store := testStore(t)
	r := NewRunner(store, platform.BaselineCPU())
	b := workload.Chatbot()
	a, err := r.Invoke(b, Options{Quantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	bRes, err := r.Invoke(b, Options{Quantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Total() != bRes.Total() {
		t.Errorf("quantile mode must be deterministic: %v vs %v", a.Total(), bRes.Total())
	}
}

func TestInvokeSampledVariance(t *testing.T) {
	store := testStore(t)
	r := NewRunner(store, platform.BaselineCPU())
	b := workload.Moderation()
	seen := map[time.Duration]bool{}
	for i := 0; i < 10; i++ {
		res, err := r.Invoke(b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		seen[res.Total()] = true
	}
	if len(seen) < 5 {
		t.Errorf("sampled invocations should vary, got %d distinct latencies", len(seen))
	}
}

func TestColdStartAddsLatency(t *testing.T) {
	store := testStore(t)
	for _, p := range []platform.Compute{platform.BaselineCPU(), platform.DSCS()} {
		r := NewRunner(store, p)
		b := workload.Chatbot()
		warm, err := r.Invoke(b, Options{Quantile: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := r.Invoke(b, Options{Quantile: 0.5, Cold: true})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Breakdown.ColdStart <= 0 {
			t.Errorf("%s: cold start not charged", p.Name())
		}
		if cold.Total() <= warm.Total() {
			t.Errorf("%s: cold (%v) must exceed warm (%v)", p.Name(), cold.Total(), warm.Total())
		}
	}
}

func TestExtraFunctionsScaleBothPaths(t *testing.T) {
	store := testStore(t)
	b := workload.Clinical()
	for _, p := range []platform.Compute{platform.BaselineCPU(), platform.DSCS()} {
		r := NewRunner(store, p)
		prev := time.Duration(0)
		for extra := 0; extra <= 2; extra++ {
			res, err := r.Invoke(b, Options{Quantile: 0.5, ExtraAccelFuncs: extra})
			if err != nil {
				t.Fatal(err)
			}
			if res.Total() <= prev {
				t.Errorf("%s: +%d functions should cost more", p.Name(), extra)
			}
			prev = res.Total()
		}
	}
}

func TestBatchScalesPayloadAndCompute(t *testing.T) {
	store := testStore(t)
	r := NewRunner(store, platform.BaselineCPU())
	b := workload.AssetDamage()
	one, err := r.Invoke(b, Options{Quantile: 0.5, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := r.Invoke(b, Options{Quantile: 0.5, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if eight.Total() <= one.Total() {
		t.Error("batch 8 must cost more end to end")
	}
	if eight.Total() >= 8*one.Total() {
		t.Error("batch 8 must amortize fixed costs")
	}
}

func TestDSCSFallsBackWithoutDrives(t *testing.T) {
	// A store with no DSCS nodes: the DSCS runner must fall back to the
	// conventional path (Section 5.3 fail-over).
	var nodes []*objstore.Node
	for i := 0; i < 3; i++ {
		d, err := ssd.New(ssd.SmartSSDClass())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &objstore.Node{
			ID: fmt.Sprintf("ssd-%d", i), Kind: objstore.PlainSSD, SSD: d,
		})
	}
	store, err := objstore.New(objstore.Default(), nodes, sim.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store, platform.DSCS())
	res, err := r.Invoke(workload.Moderation(), Options{Quantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Driver != 0 {
		t.Error("fallback path must not touch the in-storage driver")
	}
	if res.Breakdown.RemoteRead <= 0 {
		t.Error("fallback path must pay remote IO")
	}
}

func TestChainedIntermediatesStayOnDrive(t *testing.T) {
	store := testStore(t)
	r := NewRunner(store, platform.DSCS())
	b := workload.PPEDetection() // 9.8MB fp32 intermediate tensor
	res, err := r.Invoke(b, Options{Quantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// If the intermediate round-tripped through the store, RemoteRead/Write
	// would carry tens of milliseconds; chained execution leaves only f3's
	// small read.
	if res.Breakdown.RemoteWrite > 0 {
		t.Errorf("chained DSCS path wrote remotely: %v", res.Breakdown.RemoteWrite)
	}
	if res.Breakdown.RemoteRead > 40*time.Millisecond {
		t.Errorf("f3 read too large (%v): intermediate leaked off-drive?",
			res.Breakdown.RemoteRead)
	}
}

// TestInvokeRejectsUnpriceableQuantile pins the quantile bound: at 1 or
// more, or NaN, the normal quantile is infinite and every priced latency
// garbage, so Invoke and InvokeScattered refuse before touching the store.
// Below 1 is served; 0 or less keeps meaning "sample".
func TestInvokeRejectsUnpriceableQuantile(t *testing.T) {
	b := workload.AssetDamage()
	for _, tc := range []struct {
		q    float64
		want error
	}{
		{1, ErrQuantile},
		{1.5, ErrQuantile},
		{math.Inf(1), ErrQuantile},
		{math.NaN(), ErrQuantile},
		{0.999999, nil},
		{0.5, nil},
		{0, nil},
		{-1, nil},
		{math.Inf(-1), nil},
	} {
		store := testStore(t)
		for _, p := range platform.All() {
			r := NewRunner(store, p)
			res, err := r.Invoke(b, Options{Quantile: tc.q})
			if !errors.Is(err, tc.want) {
				t.Fatalf("q=%v on %s: err %v, want %v", tc.q, p.Name(), err, tc.want)
			}
			if tc.want == nil && (res.Total() <= 0 || res.Total() > time.Hour) {
				t.Fatalf("q=%v on %s: total %v", tc.q, p.Name(), res.Total())
			}
			if p.Class() == platform.InStorageDSA {
				if _, err := r.InvokeScattered(b, Options{Batch: 4, Quantile: tc.q}, 2); !errors.Is(err, tc.want) {
					t.Fatalf("scattered q=%v: err %v, want %v", tc.q, err, tc.want)
				}
			}
		}
		if tc.want == nil {
			continue
		}
		for _, n := range store.Nodes() {
			if reads, writes, _, _ := n.Drive().Counters(); reads+writes != 0 {
				t.Fatalf("q=%v: node %s saw %d reads and %d writes, want none", tc.q, n.ID, reads, writes)
			}
		}
	}
}

// TestWarmLoopExtentsSettle pins the flash table's size under the warm
// invocation loop: every application on every platform at batch 1, 2 and
// 8, at quantile 0.5. Once every object is placed, a round rewrites each
// one in place, so a drive's extent count stops moving. The count is
// bounded by the drive's share of the store: one extent per chunk replica
// it holds, one more where the DSCS path's output write cuts an input
// replica's head, and a staircase in the near-storage scratch region of at
// most one extent per size written there (an intermediate and an output
// per application and batch).
func TestWarmLoopExtentsSettle(t *testing.T) {
	store := testStore(t)
	var runners []*Runner
	for _, p := range platform.All() {
		runners = append(runners, NewRunner(store, p))
	}
	batches := []int{1, 2, 8}
	round := func() []int {
		for _, b := range workload.Suite() {
			for _, r := range runners {
				for _, batch := range batches {
					if _, err := r.Invoke(b, Options{Batch: batch, Quantile: 0.5}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		var counts []int
		for _, n := range store.Nodes() {
			counts = append(counts, n.Drive().FlashExtents())
		}
		return counts
	}
	round()
	settled := round()
	for i := 0; i < 3; i++ {
		if got := round(); !slices.Equal(got, settled) {
			t.Fatalf("round %d: extents per drive %v, settled at %v", i+3, got, settled)
		}
	}
	replicas := map[string]int{}
	for _, b := range workload.Suite() {
		for _, batch := range batches {
			for s := range stageNames {
				obj, ok := store.Lookup(formatStageKey(b.Slug, stage(s), batch))
				if !ok {
					t.Fatalf("%s stage %d batch %d never placed", b.Slug, s, batch)
				}
				for _, c := range obj.Chunks {
					for _, rep := range c.Replicas {
						replicas[rep.NodeID]++
					}
				}
			}
		}
	}
	scratch := 2 * len(workload.Suite()) * len(batches)
	for i, n := range store.Nodes() {
		if bound := 2*replicas[n.ID] + scratch; settled[i] < 1 || settled[i] > bound {
			t.Errorf("drive %s settled at %d extents, want 1-%d", n.ID, settled[i], bound)
		}
	}
	t.Logf("extents per drive: %v; chunk replicas per drive: %v", settled, replicas)
}

var benchResult Result

// BenchmarkInvokeWarm is the host cost of one warm invocation at quantile
// 0.5 on each execution path: in-storage (DSCS), traditional (CPU, remote
// storage) and conventional near-storage (NS-ARM). Each allocates nothing.
func BenchmarkInvokeWarm(b *testing.B) {
	bench := workload.AssetDamage()
	opt := Options{Quantile: 0.5}
	for _, tc := range []struct {
		name string
		p    platform.Compute
	}{
		{"DSCS", platform.DSCS()},
		{"CPU", platform.BaselineCPU()},
		{"NS-ARM", platform.NSARM()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			r := NewRunner(testStore(b), tc.p)
			if _, err := r.Invoke(bench, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				res, err := r.Invoke(bench, opt)
				if err != nil {
					b.Fatal(err)
				}
				benchResult = res
			}
		})
	}
}
