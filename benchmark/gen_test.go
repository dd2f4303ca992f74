package main

import (
	"reflect"
	"testing"

	"dscs/internal/trace"
)

func TestGenBlockSameSeedSameInputs(t *testing.T) {
	a, b := genBlock(7, 3, 1536), genBlock(7, 3, 1536)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and block gave different request sequences")
	}
	if reflect.DeepEqual(a, genBlock(8, 3, 1536)) {
		t.Error("another seed gave the same request sequence")
	}
	if reflect.DeepEqual(a, genBlock(7, 4, 1536)) {
		t.Error("another block of the same seed gave the same request sequence")
	}
}

// The mix is fixed and only the order is seeded: every app n/8 times, one
// request in 16 cold.
func TestGenBlockComposition(t *testing.T) {
	for _, n := range []int{2 * burstSize, 512, 1536} {
		perApp := make(map[uint8]int)
		cold := 0
		for _, r := range genBlock(11, 0, n) {
			perApp[r.app]++
			if r.cold {
				cold++
			}
		}
		for app := uint8(0); app < apps; app++ {
			if perApp[app] != n/apps {
				t.Errorf("n=%d: app %d appears %d times, want %d", n, app, perApp[app], n/apps)
			}
		}
		if cold != n/16 {
			t.Errorf("n=%d: %d cold requests, want %d", n, cold, n/16)
		}
	}
}

func TestSimInputsSeededAndFixedSize(t *testing.T) {
	type inputs struct {
		rack, hybrid *trace.Trace
		faults       []trace.FaultEvent
		workflows    *trace.WorkflowTrace
	}
	gen := func(seed uint64, k int) inputs {
		t.Helper()
		var in inputs
		var err error
		if in.rack, err = rackTrace(seed, k); err != nil {
			t.Fatal(err)
		}
		if in.hybrid, err = hybridTrace(seed, k); err != nil {
			t.Fatal(err)
		}
		if in.faults, err = hybridFaults(seed, k); err != nil {
			t.Fatal(err)
		}
		if in.workflows, err = workflowTrace(seed, k); err != nil {
			t.Fatal(err)
		}
		return in
	}
	a := gen(5, 1)
	if !reflect.DeepEqual(a, gen(5, 1)) {
		t.Fatal("the same seed gave different sim inputs")
	}
	for name, other := range map[string]inputs{"another seed": gen(6, 1), "another replay": gen(5, 2)} {
		if reflect.DeepEqual(a.rack, other.rack) || reflect.DeepEqual(a.hybrid, other.hybrid) ||
			reflect.DeepEqual(a.workflows, other.workflows) {
			t.Errorf("%s gave the same sim inputs", name)
		}
		if len(other.rack.Requests) != rackRequests || len(other.hybrid.Requests) != hybridRequests ||
			other.workflows.Stages() != etlWorkflows*6+mlWorkflows*3 {
			t.Errorf("%s: sizes %d/%d/%d are not the fixed ones", name,
				len(other.rack.Requests), len(other.hybrid.Requests), other.workflows.Stages())
		}
	}
	if len(a.faults) != 2 || a.faults[0].Kind.Down() == a.faults[1].Kind.Down() {
		t.Errorf("fault script is not one down/up pair: %v", a.faults)
	}
	offsets := make(map[trace.FaultEvent]bool)
	for seed := uint64(1); seed <= 8; seed++ {
		ev, err := hybridFaults(seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		offsets[ev[0]] = true
	}
	if len(offsets) < 2 {
		t.Error("eight seeds all drew the same fault offset")
	}
}

func TestChainSpecParsesAndIsSeeded(t *testing.T) {
	seen := make(map[string]bool)
	for seed := uint64(1); seed <= 8; seed++ {
		s := chainSpec(seed)
		if s != chainSpec(seed) {
			t.Fatal("the same seed gave different workflow specs")
		}
		spec, err := trace.ParseWorkflowSpec(s)
		if err != nil {
			t.Fatalf("seed %d: %q does not parse: %v", seed, s, err)
		}
		if len(spec.Stages) != 3 || len(spec.Roots()) != 1 {
			t.Errorf("seed %d: %q is not a 3-stage chain", seed, s)
		}
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Error("eight seeds all gave the same workflow spec")
	}
}
