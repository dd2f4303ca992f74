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
	"strconv"
	"strings"
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

// open reports whether a stage in this state has yet to settle.
func (s State) open() bool { return s == Blocked || s == Ready }

// Run is one workflow's live graph state. It is built once per workflow
// and runs without allocating: the topology comes from one
// trace.WorkflowSpec.Graph pass, the per-stage state sits in one array,
// every object key of the run is a substring of one string, and the input
// keys lie back to back in one slice. Construction costs the same handful
// of allocations whatever the stage count.
//
// It is not safe for concurrent use; the live engine serializes access
// behind its own lock and the sims are single-threaded.
type Run struct {
	id      int
	arrived time.Duration
	spec    *trace.WorkflowSpec
	graph   trace.WorkflowGraph

	stages []stage
	// inKeys holds every stage's input object keys back to back:
	// dependency outputs in declaration order, or a root's seeded input.
	inKeys    []string
	settledAt time.Duration

	started                      bool
	completed, dropped, stranded int

	// unlocked is the reusable buffer Start and Complete return newly
	// unlocked stage indices in; it is overwritten by the next call. work
	// is the strand cascade's worklist. Each holds a stage at most once.
	unlocked, work []int
}

// stage is one stage's per-run state.
type stage struct {
	state      State
	unlockedAt time.Duration
	out        string // output object key
	pending    int32  // unmet dependency count
	in, inEnd  int32  // span of the input keys in Run.inKeys
}

// NewRun validates the spec and builds the graph state for one workflow
// admitted at arrived. Keys are spelled wf/<id>/<stage> for a stage's
// output and wf/<id>/in/<stage> for a root's seeded input; the store
// places an object by hashing its key, so the spelling is part of
// placement.
func NewRun(id int, arrived time.Duration, spec *trace.WorkflowSpec) (*Run, error) {
	g, err := spec.Graph()
	if err != nil {
		return nil, err
	}
	n, roots := len(spec.Stages), g.Roots()
	var num [20]byte // len("-9223372036854775808")
	wid := strconv.AppendInt(num[:0], int64(id), 10)
	prefix := len("wf/") + len(wid) + len("/")
	size, inputs := 0, len(roots)
	for i, st := range spec.Stages {
		size += prefix + len(st.ID)
		inputs += len(g.Deps(i))
	}
	for _, i := range roots {
		size += prefix + len("in/") + len(spec.Stages[i].ID)
	}
	var b strings.Builder
	b.Grow(size)
	key := func(in bool, stageID string) {
		b.WriteString("wf/")
		b.Write(wid)
		b.WriteByte('/')
		if in {
			b.WriteString("in/")
		}
		b.WriteString(stageID)
	}
	for _, st := range spec.Stages {
		key(false, st.ID)
	}
	for _, i := range roots {
		key(true, spec.Stages[i].ID)
	}
	keys := b.String()

	bufs := make([]int, 2*n)
	r := &Run{
		id: id, arrived: arrived, spec: spec, graph: g,
		stages:   make([]stage, n),
		inKeys:   make([]string, 0, inputs),
		unlocked: bufs[:0:n],
		work:     bufs[n:n],
	}
	at := 0
	for i, st := range spec.Stages {
		end := at + prefix + len(st.ID)
		r.stages[i].out = keys[at:end]
		at = end
	}
	// The root inputs follow the outputs in the key string, in spec order.
	for i := range r.stages {
		s := &r.stages[i]
		s.in = int32(len(r.inKeys))
		if deps := g.Deps(i); len(deps) > 0 {
			s.pending = int32(len(deps))
			for _, j := range deps {
				r.inKeys = append(r.inKeys, r.stages[j].out)
			}
		} else {
			end := at + prefix + len("in/") + len(spec.Stages[i].ID)
			r.inKeys = append(r.inKeys, keys[at:end])
			at = end
		}
		s.inEnd = int32(len(r.inKeys))
	}
	return r, nil
}

// ID returns the workflow's trace ID.
func (r *Run) ID() int { return r.id }

// Len returns the stage count.
func (r *Run) Len() int { return len(r.stages) }

// Stage returns stage i's spec.
func (r *Run) Stage(i int) trace.WorkflowStage { return r.spec.Stages[i] }

// State returns stage i's lifecycle position.
func (r *Run) State(i int) State { return r.stages[i].state }

// OutputKey returns stage i's output object key.
func (r *Run) OutputKey(i int) string { return r.stages[i].out }

// InputKeys returns stage i's input object keys: its dependencies' outputs,
// or the seeded input object for a root. The slice is owned by the Run and
// capped at its length, so an append cannot write over the next stage's.
func (r *Run) InputKeys(i int) []string {
	s := &r.stages[i]
	return r.inKeys[s.in:s.inEnd:s.inEnd]
}

// Roots returns the indices of the stages with no dependencies, in spec
// order. The slice is owned by the Run.
func (r *Run) Roots() []int { return r.graph.Roots() }

// UnlockedAt returns when stage i unlocked — the instant its scheduler age
// is measured from. Zero until the stage leaves Blocked.
func (r *Run) UnlockedAt(i int) time.Duration { return r.stages[i].unlockedAt }

// unlockAt applies the stage's own offset floor: a stage may not start
// before arrival+Offset even if its dependencies finish earlier.
func (r *Run) unlockAt(i int, now time.Duration) time.Duration {
	if floor := r.arrived + r.spec.Stages[i].Offset; floor > now {
		return floor
	}
	return now
}

// Start unlocks the root stages still Blocked at now and returns their
// indices; a root that Strand settled before Start stays settled. The
// returned slice is reused by the next Start/Complete call.
func (r *Run) Start(now time.Duration) []int {
	if r.started {
		return nil
	}
	r.started = true
	r.unlocked = r.unlocked[:0]
	for _, i := range r.graph.Roots() {
		if r.stages[i].state != Blocked {
			continue
		}
		r.stages[i].state = Ready
		r.stages[i].unlockedAt = r.unlockAt(i, now)
		r.unlocked = append(r.unlocked, i)
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
	if r.stages[i].state != Ready {
		// Double completion (a hedge losing the race after a requeue, or a
		// caller bug) must not unlock dependents twice.
		return r.unlocked
	}
	r.stages[i].state = Done
	r.completed++
	for _, j := range r.graph.Dependents(i) {
		s := &r.stages[j]
		if s.pending--; s.pending == 0 && s.state == Blocked {
			s.state = Ready
			s.unlockedAt = r.unlockAt(j, now)
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
	if r.stages[i].state != Ready {
		return 0
	}
	r.stages[i].state = Dropped
	r.dropped++
	n := r.strandDownstream(i)
	r.noteSettled(now)
	return n
}

// Strand settles stage i as stranded (its pool died with the stage queued,
// or the run is being closed out) and cascades downstream. It accepts
// Blocked and Ready stages and returns the total stranded including i.
func (r *Run) Strand(i int, now time.Duration) int {
	if !r.stages[i].state.open() {
		return 0
	}
	r.stages[i].state = Stranded
	r.stranded++
	n := 1 + r.strandDownstream(i)
	r.noteSettled(now)
	return n
}

// strandDownstream walks the dependent closure of a failed stage with the
// Run's worklist, settling every still-open stage it reaches. A stage
// settles as it is pushed, so none is pushed twice and the worklist never
// outgrows the stage count.
func (r *Run) strandDownstream(i int) int {
	n := 0
	work := append(r.work[:0], i)
	for len(work) > 0 {
		j := work[len(work)-1]
		work = work[:len(work)-1]
		for _, k := range r.graph.Dependents(j) {
			if r.stages[k].state.open() {
				r.stages[k].state = Stranded
				r.stranded++
				n++
				work = append(work, k)
			}
		}
	}
	return n
}

// StrandRemaining settles every still-open stage as stranded — the
// end-of-run close-out for workflows the horizon cut off. Returns the
// number stranded.
func (r *Run) StrandRemaining(now time.Duration) int {
	n := 0
	for i := range r.stages {
		if r.stages[i].state.open() {
			r.stages[i].state = Stranded
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
	return r.completed+r.dropped+r.stranded == len(r.stages)
}

// Succeeded reports whether every stage completed.
func (r *Run) Succeeded() bool { return r.completed == len(r.stages) }

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
	for i := range r.stages {
		switch r.stages[i].state {
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
	if r.completed+r.dropped+r.stranded+open != len(r.stages) {
		return fmt.Errorf("workflow %d: %d completed + %d dropped + %d stranded + %d open != %d admitted",
			r.id, r.completed, r.dropped, r.stranded, open, len(r.stages))
	}
	if r.Settled() && open != 0 {
		return fmt.Errorf("workflow %d: settled with %d open stages", r.id, open)
	}
	return nil
}
