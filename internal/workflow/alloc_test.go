package workflow

import (
	"fmt"
	"testing"
	"time"

	"dscs/internal/trace"
)

// raceDetector is set by race_test.go under -race.
var raceDetector bool

// chainSpec returns an n-stage chain s0 → s1 → … of one benchmark.
func chainSpec(n int) *trace.WorkflowSpec {
	spec := &trace.WorkflowSpec{}
	for i := 0; i < n; i++ {
		st := trace.WorkflowStage{ID: fmt.Sprintf("s%d", i), Benchmark: "chatbot"}
		if i > 0 {
			st.Deps = []string{spec.Stages[i-1].ID}
		}
		spec.Stages = append(spec.Stages, st)
	}
	return spec
}

// TestNewRunAllocations pins a Run's construction at a constant count: the
// graph, the Run, its stage array, its input-key slice, its key string and
// its two work buffers — six allocations at 3 stages and at 64.
func TestNewRunAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	const want = 6
	for _, n := range []int{3, 64} {
		spec := chainSpec(n)
		got := testing.AllocsPerRun(100, func() {
			if _, err := NewRun(123456, time.Second, spec); err != nil {
				t.Fatal(err)
			}
		})
		if got != want {
			t.Errorf("NewRun of a %d-stage chain allocates %v times, want %d", n, got, want)
		}
	}
}

// TestRunAllocations pins driving a Run at zero allocations: Start, every
// Complete, and the strand cascade behind Drop and Strand.
func TestRunAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	spec, err := trace.ParseWorkflowSpec("0s:a=x:;0s:b=y:a;0s:c=y:a;0s:d=z:b,c;0s:e=z:d")
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]*Run, 202)
	for i := range runs {
		if runs[i], err = NewRun(i, 0, spec); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	got := testing.AllocsPerRun(100, func() {
		done, cut := runs[next], runs[next+1]
		next += 2
		done.Start(0)
		for i := 0; i < done.Len(); i++ {
			done.Complete(i, time.Second)
		}
		cut.Start(0)
		cut.Complete(0, time.Second)
		cut.Drop(1, time.Second)
		cut.Strand(2, time.Second)
	})
	if got != 0 {
		t.Errorf("driving two runs allocates %v times, want 0", got)
	}
}

// BenchmarkNewRun times building one workflow's Run: an ETL scatter-gather
// graph of eight shards, ten stages.
func BenchmarkNewRun(b *testing.B) {
	spec := &trace.WorkflowSpec{Stages: []trace.WorkflowStage{{ID: "extract", Benchmark: "credit-risk"}}}
	var shards []string
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("shard%d", i)
		shards = append(shards, id)
		spec.Stages = append(spec.Stages, trace.WorkflowStage{ID: id, Benchmark: "nl-query", Deps: []string{"extract"}})
	}
	spec.Stages = append(spec.Stages, trace.WorkflowStage{ID: "gather", Benchmark: "credit-risk", Deps: shards})
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := NewRun(i, 0, spec); err != nil {
			b.Fatal(err)
		}
	}
}
