package serve

import (
	"slices"
	"testing"
	"time"

	"dscs/internal/metrics"
)

// stubView is a poolView over plain slices, counting the free-worker reads.
// Its wait windows are made on the first record, over 8 observations.
type stubView struct {
	dead      []bool
	depths    []int
	busy      []bool
	waits     [3]*metrics.Window
	freeReads int
}

func (v *stubView) healthy(i int) bool { return !v.dead[i] }
func (v *stubView) depth(i int) int    { return v.depths[i] }
func (v *stubView) hasFree(i int) bool { v.freeReads++; return !v.busy[i] }

func (v *stubView) wait(i int, q float64) (int64, time.Duration) {
	if w := v.waits[i]; w != nil {
		return w.Count(), w.Quantile(q)
	}
	return 0, 0
}

// record charges one wait to pool i.
func (v *stubView) record(i int, wait time.Duration) {
	if v.waits[i] == nil {
		v.waits[i] = metrics.NewWindow(8)
	}
	v.waits[i].Record(wait)
}

// flips counts the directed pair's latch toggles.
func (b *balancer) flips(from, to int) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.latches[from*b.n+to].Flips()
}

// TestBalancerDecisions covers the corners of the shared decision that no
// MultiCore or Engine test drives, on three pools with warm-up 2.
func TestBalancerDecisions(t *testing.T) {
	const warmup = 2
	type want struct {
		target, donor int // -1: none
		freeReads     int // -1: unchecked
	}
	for _, tc := range []struct {
		name   string
		view   stubView
		waits  [3][]time.Duration // recorded per pool
		only   func(int) bool     // BalanceTarget(0, only)
		thief  int                // StealDonor(thief, nil)
		expect want
	}{
		{
			// Nothing warmed anywhere: the dead donor's backlog leaves on
			// health alone, by spill and by steal.
			name:   "dead donor with a backlog qualifies without warm-up",
			view:   stubView{dead: []bool{true, false, false}, depths: []int{3, 0, 0}, busy: make([]bool, 3)},
			thief:  1,
			expect: want{target: 1, donor: 0, freeReads: -1},
		},
		{
			// One observation is below warm-up: the donor's waits are not
			// evidence, so the peer's free-worker state is never read to price it
			// for the latch (ranking BalanceTarget's one candidate is the
			// single free-worker read).
			name:   "an unwarmed donor never prices its peer",
			view:   stubView{dead: make([]bool, 3), depths: []int{5, 0, 0}, busy: make([]bool, 3)},
			waits:  [3][]time.Duration{{time.Second}},
			only:   func(i int) bool { return i == 2 },
			thief:  2,
			expect: want{target: -1, donor: -1, freeReads: 1},
		},
		{
			name:   "equally priced peers tie to the lowest index",
			view:   stubView{dead: make([]bool, 3), depths: []int{5, 0, 0}, busy: make([]bool, 3)},
			waits:  [3][]time.Duration{{time.Second, time.Second}},
			thief:  1,
			expect: want{target: 1, donor: 0, freeReads: -1},
		},
		{
			// The cheapest peer is dead; however long the donor waits,
			// work goes to the live one, and a dead thief steals nothing.
			name:   "a dead peer is never a target or a thief",
			view:   stubView{dead: []bool{false, true, false}, depths: []int{5, 0, 0}, busy: make([]bool, 3)},
			waits:  [3][]time.Duration{{time.Second, time.Second}},
			thief:  1,
			expect: want{target: 2, donor: -1, freeReads: -1},
		},
		{
			// A dead from reroutes by depth alone: no warm-up, no latch,
			// and no free-worker read.
			name:   "dead from: the least-deep peer wins",
			view:   stubView{dead: []bool{true, false, false}, depths: []int{3, 4, 1}, busy: make([]bool, 3)},
			thief:  2,
			expect: want{target: 2, donor: 0, freeReads: 0},
		},
		{
			// An empty dead from still reroutes: what it admits waits
			// for recovery or rescue.
			name:   "dead from: a tie goes to the lowest index",
			view:   stubView{dead: []bool{true, false, false}, depths: []int{0, 2, 2}, busy: make([]bool, 3)},
			thief:  1,
			expect: want{target: 1, donor: -1, freeReads: 0},
		},
		{
			name:   "dead from: dead peers and from are skipped",
			view:   stubView{dead: []bool{true, true, false}, depths: []int{5, 0, 3}, busy: make([]bool, 3)},
			thief:  2,
			expect: want{target: 2, donor: 0, freeReads: 0},
		},
		{
			name:   "dead from: eligible is honoured",
			view:   stubView{dead: []bool{true, false, false}, depths: []int{1, 0, 4}, busy: make([]bool, 3)},
			only:   func(i int) bool { return i == 2 },
			thief:  1,
			expect: want{target: 2, donor: 0, freeReads: 0},
		},
		{
			name:   "dead from: no healthy eligible peer",
			view:   stubView{dead: []bool{true, false, true}, depths: []int{2, 0, 0}, busy: make([]bool, 3)},
			only:   func(i int) bool { return i == 2 },
			thief:  1,
			expect: want{target: -1, donor: 0, freeReads: 0},
		},
		{
			// Pool 1 is busy and has waited as long as the donor; pool 2
			// is idle and prices at zero whatever its digest holds.
			name:   "an idle peer prices at zero despite its digest",
			view:   stubView{dead: make([]bool, 3), depths: []int{5, 0, 0}, busy: []bool{true, true, false}},
			waits:  [3][]time.Duration{{time.Second, time.Second}, {time.Second, time.Second}, {time.Hour, time.Hour}},
			thief:  2,
			expect: want{target: 2, donor: 0, freeReads: -1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			view := tc.view
			var b balancer
			b.init(&view, 3, warmup)
			for i, ws := range tc.waits {
				for _, w := range ws {
					view.record(i, w)
				}
			}
			target, ok := b.BalanceTarget(0, tc.only)
			if !ok {
				target = -1
			}
			donor, ok := b.StealDonor(tc.thief, nil)
			if !ok {
				donor = -1
			}
			if target != tc.expect.target || donor != tc.expect.donor {
				t.Errorf("target %d donor %d, want %d and %d", target, donor, tc.expect.target, tc.expect.donor)
			}
			if tc.expect.freeReads >= 0 && view.freeReads != tc.expect.freeReads {
				t.Errorf("%d free-worker reads, want %d", view.freeReads, tc.expect.freeReads)
			}
		})
	}
}

// TestBalancerInvalidate pins what a pool's death forgets once its owner
// drops the pool's wait window: the wake gate published from it, and every
// latch touching it, released without counting a flip.
func TestBalancerInvalidate(t *testing.T) {
	view := stubView{dead: make([]bool, 2), depths: []int{4, 0}, busy: make([]bool, 2)}
	var b balancer
	b.init(&view, 2, 1)
	view.record(0, time.Second)
	if b.publishWakeGate(0); b.WakeGate(0) != time.Second {
		t.Fatalf("published wake gate %v, want the warmed wait-p95 1s", b.WakeGate(0))
	}
	if !b.Overloaded(0, 1) || b.flips(0, 1) != 1 {
		t.Fatalf("warmed wait beside an idle peer must latch once (flips %d)", b.flips(0, 1))
	}
	view.waits[0] = nil
	b.invalidate(0)
	if b.WakeGate(0) != 0 {
		t.Fatalf("the dead pool's wake gate (%v) survived", b.WakeGate(0))
	}
	if b.Overloaded(0, 1) || b.flips(0, 1) != 1 {
		t.Fatalf("a forgotten pool still reads overloaded, or its release counted a flip (flips %d)", b.flips(0, 1))
	}
}

// countingView counts the free-worker reads per pool.
type countingView struct {
	stubView
	free []int
}

func (v *countingView) hasFree(i int) bool { v.free[i]++; return v.stubView.hasFree(i) }

// TestBalanceTargetPricesEachPoolOnce pins the cost of one spill decision:
// the winning peer's price goes from the ranking to the latch, so no pool's
// free-worker state is read twice — whether the winner priced at zero for
// being idle or at its digest for being busy — the scan prices no pool
// after the first one priced at zero (nothing can undercut it), and the
// decision allocates nothing; a dead-home reroute prices nothing.
func TestBalanceTargetPricesEachPoolOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		busy   []bool
		target int
		reads  []int // free-worker reads per pool
	}{
		{"idle winner", []bool{true, true, false}, 2, []int{0, 1, 1}},
		{"busy winner", []bool{true, true, true}, 1, []int{0, 1, 1}},
		{"an idle peer ends the scan", []bool{true, false, true}, 1, []int{0, 1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			view := countingView{
				stubView: stubView{dead: make([]bool, 3), depths: []int{5, 0, 0}, busy: tc.busy},
				free:     make([]int, 3),
			}
			var b balancer
			b.init(&view, 3, 2)
			for i, w := range []time.Duration{time.Second, time.Millisecond, time.Minute} {
				view.record(i, w)
				view.record(i, w)
			}
			if got, ok := b.BalanceTarget(0, nil); !ok || got != tc.target {
				t.Fatalf("target %d (%v), want %d", got, ok, tc.target)
			}
			if !slices.Equal(view.free, tc.reads) {
				t.Errorf("free-worker reads per pool %v, want %v", view.free, tc.reads)
			}
			if raceDetector {
				return
			}
			if got := testing.AllocsPerRun(200, func() { b.BalanceTarget(0, nil) }); got != 0 {
				t.Errorf("BalanceTarget allocates %v times, want 0", got)
			}
		})
	}
	// A dead from reroutes on depth alone: no pool's free-worker state is
	// read, and the decision allocates nothing either.
	t.Run("dead from", func(t *testing.T) {
		view := countingView{
			stubView: stubView{dead: []bool{true, false, false}, depths: []int{5, 2, 1}, busy: make([]bool, 3)},
			free:     make([]int, 3),
		}
		var b balancer
		b.init(&view, 3, 2)
		if got, ok := b.BalanceTarget(0, nil); !ok || got != 2 {
			t.Fatalf("target %d (%v), want 2", got, ok)
		}
		if want := []int{0, 0, 0}; !slices.Equal(view.free, want) {
			t.Errorf("free-worker reads per pool %v, want %v", view.free, want)
		}
		if raceDetector {
			return
		}
		if got := testing.AllocsPerRun(200, func() { b.BalanceTarget(0, nil) }); got != 0 {
			t.Errorf("BalanceTarget allocates %v times, want 0", got)
		}
	})
}
