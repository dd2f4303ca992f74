package workflow

import (
	"testing"
	"time"

	"dscs/internal/trace"
)

// diamond is the four-stage test graph: a fans out to b and c, d joins.
func diamond(t *testing.T) *trace.WorkflowSpec {
	t.Helper()
	spec, err := trace.ParseWorkflowSpec(
		"0s:a=x:;0s:b=y:a;0s:c=y:a;0s:d=z:b,c")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestRunUnlockOrder(t *testing.T) {
	r, err := NewRun(7, time.Second, diamond(t))
	if err != nil {
		t.Fatal(err)
	}
	roots := r.Start(time.Second)
	if len(roots) != 1 || roots[0] != 0 {
		t.Fatalf("roots = %v, want [0]", roots)
	}
	if got := r.State(0); got != Ready {
		t.Fatalf("root state %v", got)
	}
	if got := r.State(3); got != Blocked {
		t.Fatalf("join state %v before deps", got)
	}
	un := r.Complete(0, 2*time.Second)
	if len(un) != 2 || un[0] != 1 || un[1] != 2 {
		t.Fatalf("completing the root unlocked %v, want [1 2]", un)
	}
	if got := r.UnlockedAt(1); got != 2*time.Second {
		t.Fatalf("stage b unlocked at %v, want 2s (age measures from unlock)", got)
	}
	if un := r.Complete(1, 3*time.Second); len(un) != 0 {
		t.Fatalf("half-done join unlocked %v", un)
	}
	un = r.Complete(2, 4*time.Second)
	if len(un) != 1 || un[0] != 3 {
		t.Fatalf("join unlock = %v, want [3]", un)
	}
	if r.Settled() {
		t.Fatal("settled with the join still open")
	}
	r.Complete(3, 5*time.Second)
	if !r.Settled() || !r.Succeeded() {
		t.Fatal("all stages done must settle and succeed")
	}
	if ms, ok := r.Makespan(); !ok || ms != 4*time.Second {
		t.Fatalf("makespan = %v/%v, want 4s", ms, ok)
	}
	if err := r.Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestRunOffsetFloor(t *testing.T) {
	spec, err := trace.ParseWorkflowSpec("0s:a=x:;10s:b=y:a")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(0, time.Minute, spec)
	if err != nil {
		t.Fatal(err)
	}
	r.Start(time.Minute)
	r.Complete(0, time.Minute+time.Second)
	// b's dependencies finished at 1m1s, but its own offset keeps it from
	// starting before arrival+10s.
	if got := r.UnlockedAt(1); got != time.Minute+10*time.Second {
		t.Fatalf("offset floor ignored: unlocked at %v", got)
	}
}

func TestRunDoubleCompleteIsInert(t *testing.T) {
	r, err := NewRun(0, 0, diamond(t))
	if err != nil {
		t.Fatal(err)
	}
	r.Start(0)
	r.Complete(0, time.Second)
	before := r.Completed()
	if un := r.Complete(0, 2*time.Second); len(un) != 0 {
		t.Fatalf("double completion unlocked %v", un)
	}
	if r.Completed() != before {
		t.Fatal("double completion moved the ledger")
	}
	if err := r.Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestDropStrandsDownstream(t *testing.T) {
	r, err := NewRun(0, 0, diamond(t))
	if err != nil {
		t.Fatal(err)
	}
	r.Start(0)
	un := r.Complete(0, time.Second)
	if len(un) != 2 {
		t.Fatalf("unlocked %v", un)
	}
	// One branch is refused admission: the join can never assemble its
	// inputs, so it strands now instead of leaking.
	if n := r.Drop(1, 2*time.Second); n != 1 {
		t.Fatalf("drop stranded %d, want 1 (the join)", n)
	}
	if got := r.State(3); got != Stranded {
		t.Fatalf("join state %v, want stranded", got)
	}
	// The live branch still completes; the run settles as a partial.
	r.Complete(2, 3*time.Second)
	if !r.Settled() || r.Succeeded() {
		t.Fatalf("settled=%v succeeded=%v, want settled partial", r.Settled(), r.Succeeded())
	}
	if c, d, s := r.Completed(), r.DroppedCount(), r.StrandedCount(); c != 2 || d != 1 || s != 1 {
		t.Fatalf("ledger %d/%d/%d, want 2 completed, 1 dropped, 1 stranded", c, d, s)
	}
	if err := r.Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestStrandRemainingClosesOut(t *testing.T) {
	r, err := NewRun(0, 0, diamond(t))
	if err != nil {
		t.Fatal(err)
	}
	r.Start(0)
	r.Complete(0, time.Second)
	if n := r.StrandRemaining(5 * time.Second); n != 3 {
		t.Fatalf("stranded %d at horizon, want 3", n)
	}
	if !r.Settled() {
		t.Fatal("close-out must settle the run")
	}
	if err := r.Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestObjectKeys(t *testing.T) {
	r, err := NewRun(42, 0, diamond(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.OutputKey(0); got != "wf/42/a" {
		t.Fatalf("output key %q", got)
	}
	if got := r.InputKeys(0); len(got) != 1 || got[0] != "wf/42/in/a" {
		t.Fatalf("root input keys %v", got)
	}
	// The join reads both branch outputs.
	join := r.InputKeys(3)
	if len(join) != 2 || join[0] != "wf/42/b" || join[1] != "wf/42/c" {
		t.Fatalf("join input keys %v", join)
	}
}

func TestPlacerPrefersLocalAndFallsBack(t *testing.T) {
	waits := []time.Duration{50 * time.Millisecond, 10 * time.Millisecond, 0}
	healthy := []bool{true, true, true}
	idle := []bool{false, false, false}
	p := &Placer{
		Pools:   3,
		Home:    func(key string) int { return 0 },
		Healthy: func(i int) bool { return healthy[i] },
		Idle:    func(i int) bool { return idle[i] },
		Wait:    func(i int) time.Duration { return waits[i] },
	}
	// A busy home loses to a strictly cheaper peer.
	if got := p.Place("k"); got.Pool != 2 || got.Local {
		t.Fatalf("busy home kept the stage: %+v", got)
	}
	// An idle home short-circuits the pricing sweep.
	idle[0] = true
	if got := p.Place("k"); got.Pool != 0 || !got.Local {
		t.Fatalf("idle home skipped: %+v", got)
	}
	idle[0] = false
	// Equal waits stay local: moving pays the fabric.
	waits[0], waits[1], waits[2] = 20*time.Millisecond, 20*time.Millisecond, 20*time.Millisecond
	if got := p.Place("k"); got.Pool != 0 || !got.Local {
		t.Fatalf("tie moved off the data: %+v", got)
	}
	// A dead home falls back to the cheapest healthy peer.
	healthy[0] = false
	waits[1] = 5 * time.Millisecond
	if got := p.Place("k"); got.Pool != 1 || got.Local {
		t.Fatalf("dead home placement: %+v", got)
	}
	// No replica anywhere: pure least-priced-wait.
	p.Home = func(string) int { return -1 }
	healthy[0] = true
	waits[0] = time.Millisecond
	if got := p.Place("k"); got.Pool != 0 || got.Local {
		t.Fatalf("cold object placement: %+v", got)
	}
	// Nothing healthy: the placer says so rather than guessing.
	healthy[0], healthy[1], healthy[2] = false, false, false
	if got := p.Place("k"); got.Pool != -1 {
		t.Fatalf("placement with no healthy pool: %+v", got)
	}
}

func TestRoundRobinSkipsUnhealthy(t *testing.T) {
	healthy := []bool{true, false, true}
	rr := &RoundRobin{Pools: 3, Healthy: func(i int) bool { return healthy[i] }}
	got := []int{rr.Place().Pool, rr.Place().Pool, rr.Place().Pool}
	want := []int{0, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation %v, want %v", got, want)
		}
	}
	healthy[0], healthy[2] = false, false
	if got := rr.Place(); got.Pool != -1 {
		t.Fatalf("all-dead rotation placed on %d", got.Pool)
	}
}

// TestStartSkipsSettledRoots pins Start against roots already settled: a
// root stranded before Start (its pool died, or the run was closed out
// before it began) stays stranded, Start readies only the roots still
// Blocked, and the tallies keep agreeing with the states.
func TestStartSkipsSettledRoots(t *testing.T) {
	spec, err := trace.ParseWorkflowSpec("0s:a=x:;0s:b=x:;0s:c=y:a,b")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(1, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Strand(0, 0); n != 2 {
		t.Fatalf("stranding root a before Start stranded %d stages, want 2 (a and c)", n)
	}
	if got := r.Start(time.Second); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Start readied %v, want [1]: root a is already stranded", got)
	}
	if got := r.State(0); got != Stranded {
		t.Fatalf("stranded root is %v after Start", got)
	}
	if err := r.Conservation(); err != nil {
		t.Fatal(err)
	}
	r.Complete(1, 2*time.Second)
	if !r.Settled() || r.Completed() != 1 || r.StrandedCount() != 2 {
		t.Fatalf("settled %v with %d completed, %d stranded; want true, 1, 2",
			r.Settled(), r.Completed(), r.StrandedCount())
	}
	if err := r.Conservation(); err != nil {
		t.Fatal(err)
	}
}
