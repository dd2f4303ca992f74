// Package workflow tracks invocation graphs through the serve core: each
// trace.WorkflowSpec becomes a Run — per-stage dependency counts, unlock
// times, and object keys — that the live engine and the simulations drive
// from their own clocks. The package owns no goroutines, no clock, and no
// randomness: callers tell it when a stage completed or dropped and it
// answers which stages that unlocks or strands. Stage data moves as
// objstore objects (a completed stage writes its output object; a
// dependent reads it), so placement can consult the replica map and run
// each stage where its input already lives (see Placer).
//
// The accounting invariant the harnesses pin: every admitted stage settles
// exactly once — completed, dropped (admission refused the unlocked
// stage), or stranded (an upstream stage failed, or the run ended first) —
// and a stage's scheduler age is measured from its unlock time, not from
// workflow arrival.
package workflow

import (
	"fmt"
	"time"

	"dscs/internal/trace"
)

// State is one stage's lifecycle position.
type State int

// Stage states. Blocked stages wait on dependencies; Ready stages have
// unlocked into a scheduler queue; Done, Dropped, and Stranded are the
// three settled ends — exactly one of them per admitted stage.
const (
	Blocked State = iota
	Ready
	Done
	Dropped
	Stranded
)

// String names the state.
func (s State) String() string {
	switch s {
	case Blocked:
		return "blocked"
	case Ready:
		return "ready"
	case Done:
		return "done"
	case Dropped:
		return "dropped"
	case Stranded:
		return "stranded"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Run is one workflow's live graph state. It is not safe for concurrent
// use; the live engine serializes access behind its own lock and the sims
// are single-threaded.
type Run struct {
	id      int
	arrived time.Duration
	spec    *trace.WorkflowSpec

	state      []State
	pending    []int   // unmet dependency count per stage
	dependents [][]int // stages waiting on this one
	unlockedAt []time.Duration
	settledAt  time.Duration

	// Object keys are precomputed at construction so the unlock hot path
	// never builds strings: outKeys[i] is stage i's output object,
	// inKeys[i] its input objects (dependency outputs; roots read the
	// workflow's seeded input object).
	outKeys []string
	inKeys  [][]string

	started                      bool
	completed, dropped, stranded int

	// unlocked is the reusable buffer Complete returns newly unlocked
	// stage indices in; it is overwritten by the next Complete/Start.
	unlocked []int
}

// NewRun validates the spec and builds the graph state for one workflow
// admitted at arrived.
func NewRun(id int, arrived time.Duration, spec *trace.WorkflowSpec) (*Run, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := len(spec.Stages)
	r := &Run{
		id: id, arrived: arrived, spec: spec,
		state:      make([]State, n),
		pending:    make([]int, n),
		dependents: make([][]int, n),
		unlockedAt: make([]time.Duration, n),
		outKeys:    make([]string, n),
		inKeys:     make([][]string, n),
		unlocked:   make([]int, 0, n),
	}
	idx := make(map[string]int, n)
	for i, st := range spec.Stages {
		idx[st.ID] = i
		r.outKeys[i] = fmt.Sprintf("wf/%d/%s", id, st.ID)
	}
	for i, st := range spec.Stages {
		if len(st.Deps) == 0 {
			r.inKeys[i] = []string{InputKey(id, st.ID)}
			continue
		}
		r.pending[i] = len(st.Deps)
		keys := make([]string, 0, len(st.Deps))
		for _, dep := range st.Deps {
			j := idx[dep]
			r.dependents[j] = append(r.dependents[j], i)
			keys = append(keys, r.outKeys[j])
		}
		r.inKeys[i] = keys
	}
	return r, nil
}

// InputKey names the seeded input object of a root stage: the object the
// workflow's caller puts before the roots unlock.
func InputKey(workflowID int, stageID string) string {
	return fmt.Sprintf("wf/%d/in/%s", workflowID, stageID)
}

// ID returns the workflow's trace ID.
func (r *Run) ID() int { return r.id }

// Spec returns the workflow's graph spec.
func (r *Run) Spec() *trace.WorkflowSpec { return r.spec }

// Len returns the stage count.
func (r *Run) Len() int { return len(r.spec.Stages) }

// Stage returns stage i's spec.
func (r *Run) Stage(i int) trace.WorkflowStage { return r.spec.Stages[i] }

// State returns stage i's lifecycle position.
func (r *Run) State(i int) State { return r.state[i] }

// OutputKey returns stage i's output object key.
func (r *Run) OutputKey(i int) string { return r.outKeys[i] }

// InputKeys returns stage i's input object keys: its dependencies' outputs,
// or the seeded input object for a root. The slice is owned by the Run.
func (r *Run) InputKeys(i int) []string { return r.inKeys[i] }

// UnlockedAt returns when stage i unlocked — the instant its scheduler age
// is measured from. Zero until the stage leaves Blocked.
func (r *Run) UnlockedAt(i int) time.Duration { return r.unlockedAt[i] }

// unlockAt applies the stage's own offset floor: a stage may not start
// before arrival+Offset even if its dependencies finish earlier.
func (r *Run) unlockAt(i int, now time.Duration) time.Duration {
	if floor := r.arrived + r.spec.Stages[i].Offset; floor > now {
		return floor
	}
	return now
}

// Start unlocks the root stages at now and returns their indices. The
// returned slice is reused by the next Start/Complete call.
func (r *Run) Start(now time.Duration) []int {
	if r.started {
		return nil
	}
	r.started = true
	r.unlocked = r.unlocked[:0]
	for i := range r.state {
		if r.pending[i] == 0 {
			r.state[i] = Ready
			r.unlockedAt[i] = r.unlockAt(i, now)
			r.unlocked = append(r.unlocked, i)
		}
	}
	return r.unlocked
}

// Complete retires stage i at now and returns the stages that unlocks:
// each dependent whose last unmet dependency this was moves Blocked→Ready
// with its age clock starting at now (never before its own offset floor).
// The returned slice is reused by the next Start/Complete call.
//
//dscslint:hotpath
func (r *Run) Complete(i int, now time.Duration) []int {
	r.unlocked = r.unlocked[:0]
	if r.state[i] != Ready {
		// Double completion (a hedge losing the race after a requeue, or a
		// caller bug) must not unlock dependents twice.
		return r.unlocked
	}
	r.state[i] = Done
	r.completed++
	for _, j := range r.dependents[i] {
		if r.pending[j]--; r.pending[j] == 0 && r.state[j] == Blocked {
			r.state[j] = Ready
			r.unlockedAt[j] = r.unlockAt(j, now)
			r.unlocked = append(r.unlocked, j)
		}
	}
	r.noteSettled(now)
	return r.unlocked
}

// Drop settles stage i as refused admission and strands everything
// downstream of it: a stage that will never produce its output object can
// never unlock its dependents, so they settle now rather than leak. It
// returns the number of stages stranded by the cascade.
func (r *Run) Drop(i int, now time.Duration) int {
	if r.state[i] != Ready {
		return 0
	}
	r.state[i] = Dropped
	r.dropped++
	n := r.strandDownstream(i)
	r.noteSettled(now)
	return n
}

// Strand settles stage i as stranded (its pool died with the stage queued,
// or the run is being closed out) and cascades downstream. It accepts
// Blocked and Ready stages and returns the total stranded including i.
func (r *Run) Strand(i int, now time.Duration) int {
	if r.state[i] != Ready && r.state[i] != Blocked {
		return 0
	}
	r.state[i] = Stranded
	r.stranded++
	n := 1 + r.strandDownstream(i)
	r.noteSettled(now)
	return n
}

// strandDownstream walks the dependent closure of a failed stage with an
// iterative worklist, settling every still-open stage it reaches.
func (r *Run) strandDownstream(i int) int {
	n := 0
	work := append([]int(nil), r.dependents[i]...)
	for len(work) > 0 {
		j := work[len(work)-1]
		work = work[:len(work)-1]
		if r.state[j] != Blocked && r.state[j] != Ready {
			continue
		}
		r.state[j] = Stranded
		r.stranded++
		n++
		work = append(work, r.dependents[j]...)
	}
	return n
}

// StrandRemaining settles every still-open stage as stranded — the
// end-of-run close-out for workflows the horizon cut off. Returns the
// number stranded.
func (r *Run) StrandRemaining(now time.Duration) int {
	n := 0
	for i := range r.state {
		if r.state[i] == Blocked || r.state[i] == Ready {
			r.state[i] = Stranded
			r.stranded++
			n++
		}
	}
	if n > 0 {
		r.noteSettled(now)
	}
	return n
}

// noteSettled records the settle instant once every stage has settled.
func (r *Run) noteSettled(now time.Duration) {
	if r.settledAt == 0 && r.Settled() {
		r.settledAt = now
	}
}

// Settled reports whether every stage has reached a terminal state.
func (r *Run) Settled() bool {
	return r.completed+r.dropped+r.stranded == len(r.state)
}

// Succeeded reports whether every stage completed.
func (r *Run) Succeeded() bool { return r.completed == len(r.state) }

// Completed, DroppedCount, and StrandedCount report the settled tallies.
func (r *Run) Completed() int     { return r.completed }
func (r *Run) DroppedCount() int  { return r.dropped }
func (r *Run) StrandedCount() int { return r.stranded }

// Makespan returns the workflow's end-to-end span — admission to the last
// stage settling — and whether the run has settled.
func (r *Run) Makespan() (time.Duration, bool) {
	if !r.Settled() {
		return 0, false
	}
	return r.settledAt - r.arrived, true
}

// Conservation checks the per-workflow ledger: stages settle at most once,
// and a settled run accounts for every admitted stage as exactly one of
// completed, dropped, or stranded.
func (r *Run) Conservation() error {
	var done, dropped, stranded, open int
	for _, s := range r.state {
		switch s {
		case Done:
			done++
		case Dropped:
			dropped++
		case Stranded:
			stranded++
		default:
			open++
		}
	}
	if done != r.completed || dropped != r.dropped || stranded != r.stranded {
		return fmt.Errorf("workflow %d: tallies diverge from states: %d/%d completed, %d/%d dropped, %d/%d stranded",
			r.id, r.completed, done, r.dropped, dropped, r.stranded, stranded)
	}
	if r.completed+r.dropped+r.stranded+open != len(r.state) {
		return fmt.Errorf("workflow %d: %d completed + %d dropped + %d stranded + %d open != %d admitted",
			r.id, r.completed, r.dropped, r.stranded, open, len(r.state))
	}
	if r.Settled() && open != 0 {
		return fmt.Errorf("workflow %d: settled with %d open stages", r.id, open)
	}
	return nil
}
