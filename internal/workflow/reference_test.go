package workflow

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dscs/internal/trace"
)

// This file keeps the map-based graph code the flat Run replaced, as the
// reference FuzzRunMatchesReference holds NewRun and trace's Validate to:
// refValidate builds an index map, a seen map per stage and nested
// dependents slices; refRun keeps one slice per field and one key slice
// per stage. The one deliberate difference from that code is the stage-ID
// alphabet: '/' is reserved in both, because a stage ID carrying it can
// spell another stage's object key.

func refStageIDRune(r rune) bool {
	switch r {
	case ':', ';', ',', '=', '/', '\n':
		return false
	}
	return !strings.ContainsRune(" \t\r", r)
}

func refValidStageID(id string) bool {
	if id == "" {
		return false
	}
	for _, r := range id {
		if !refStageIDRune(r) {
			return false
		}
	}
	return true
}

func refValidate(spec *trace.WorkflowSpec) error {
	if spec == nil || len(spec.Stages) == 0 {
		return fmt.Errorf("trace: empty workflow graph")
	}
	idx := make(map[string]int, len(spec.Stages))
	for i, st := range spec.Stages {
		if !refValidStageID(st.ID) {
			return fmt.Errorf("trace: invalid workflow stage id %q", st.ID)
		}
		if st.Benchmark == "" {
			return fmt.Errorf("trace: workflow stage %q names no benchmark", st.ID)
		}
		if st.Offset < 0 {
			return fmt.Errorf("trace: workflow stage %q has a negative offset", st.ID)
		}
		if _, dup := idx[st.ID]; dup {
			return fmt.Errorf("trace: duplicate workflow stage id %q", st.ID)
		}
		idx[st.ID] = i
	}
	pending := make([]int, len(spec.Stages))
	dependents := make([][]int, len(spec.Stages))
	for i, st := range spec.Stages {
		seen := make(map[string]bool, len(st.Deps))
		for _, dep := range st.Deps {
			j, ok := idx[dep]
			if !ok {
				return fmt.Errorf("trace: stage %q depends on undeclared stage %q", st.ID, dep)
			}
			if dep == st.ID {
				return fmt.Errorf("trace: stage %q depends on itself", st.ID)
			}
			if seen[dep] {
				return fmt.Errorf("trace: stage %q declares dependency %q twice", st.ID, dep)
			}
			seen[dep] = true
			pending[i]++
			dependents[j] = append(dependents[j], i)
		}
	}
	ready := make([]int, 0, len(spec.Stages))
	for i, n := range pending {
		if n == 0 {
			ready = append(ready, i)
		}
	}
	consumed := 0
	for len(ready) > 0 {
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		consumed++
		for _, j := range dependents[i] {
			if pending[j]--; pending[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	if consumed != len(spec.Stages) {
		stuck := make([]string, 0, len(spec.Stages)-consumed)
		for i, n := range pending {
			if n > 0 {
				stuck = append(stuck, spec.Stages[i].ID)
			}
		}
		sort.Strings(stuck)
		return fmt.Errorf("trace: workflow graph has a cycle through %s", strings.Join(stuck, ", "))
	}
	return nil
}

type refRun struct {
	id      int
	arrived time.Duration
	spec    *trace.WorkflowSpec

	state      []State
	pending    []int
	dependents [][]int
	unlockedAt []time.Duration
	settledAt  time.Duration

	outKeys []string
	inKeys  [][]string

	started                      bool
	completed, dropped, stranded int
	unlocked                     []int
}

func newRefRun(id int, arrived time.Duration, spec *trace.WorkflowSpec) (*refRun, error) {
	if err := refValidate(spec); err != nil {
		return nil, err
	}
	n := len(spec.Stages)
	r := &refRun{
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
			r.inKeys[i] = []string{fmt.Sprintf("wf/%d/in/%s", id, st.ID)}
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

func (r *refRun) unlockAt(i int, now time.Duration) time.Duration {
	if floor := r.arrived + r.spec.Stages[i].Offset; floor > now {
		return floor
	}
	return now
}

func (r *refRun) Start(now time.Duration) []int {
	if r.started {
		return nil
	}
	r.started = true
	r.unlocked = r.unlocked[:0]
	for i := range r.state {
		if r.pending[i] == 0 && r.state[i] == Blocked {
			r.state[i] = Ready
			r.unlockedAt[i] = r.unlockAt(i, now)
			r.unlocked = append(r.unlocked, i)
		}
	}
	return r.unlocked
}

func (r *refRun) Complete(i int, now time.Duration) []int {
	r.unlocked = r.unlocked[:0]
	if r.state[i] != Ready {
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

func (r *refRun) Drop(i int, now time.Duration) int {
	if r.state[i] != Ready {
		return 0
	}
	r.state[i] = Dropped
	r.dropped++
	n := r.strandDownstream(i)
	r.noteSettled(now)
	return n
}

func (r *refRun) Strand(i int, now time.Duration) int {
	if r.state[i] != Ready && r.state[i] != Blocked {
		return 0
	}
	r.state[i] = Stranded
	r.stranded++
	n := 1 + r.strandDownstream(i)
	r.noteSettled(now)
	return n
}

func (r *refRun) strandDownstream(i int) int {
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

func (r *refRun) StrandRemaining(now time.Duration) int {
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

func (r *refRun) noteSettled(now time.Duration) {
	if r.settledAt == 0 && r.Settled() {
		r.settledAt = now
	}
}

func (r *refRun) Settled() bool {
	return r.completed+r.dropped+r.stranded == len(r.state)
}

func (r *refRun) Succeeded() bool { return r.completed == len(r.state) }

func (r *refRun) Makespan() (time.Duration, bool) {
	if !r.Settled() {
		return 0, false
	}
	return r.settledAt - r.arrived, true
}
