package trace_test

import (
	"fmt"
	"strings"
	"testing"

	"dscs/internal/trace"
	"dscs/internal/workflow"
)

// FuzzWorkflowSpec drives the spec decoder: structurally broken graphs —
// cycles, dangling or duplicate deps, duplicate stage IDs, the empty
// graph — must surface as errors, never panics or silent accepts; any
// accepted spec must validate and round-trip through its formatted
// spelling, and every object key of its workflow.Run must be distinct, in
// one run and across two (no stage's output lands on another's object).
func FuzzWorkflowSpec(f *testing.F) {
	f.Add("0s:extract=credit-risk:;0s:shard0=nl-query:extract;0s:gather=credit-risk:shard0")
	f.Add("0s:pre=a:\n5s:infer=b:pre\n0s:post=c:infer")
	f.Add("0s:a=x:b;0s:b=y:a")
	f.Add("0s:a=x:ghost")
	f.Add("0s:a=x:;0s:a=y:")
	f.Add("0s:a=x:a")
	f.Add(";;\n ;")
	f.Add("0s:a=x")
	f.Add("0s:x=credit-risk:;0s:in/x=nl-query:x")
	f.Fuzz(func(t *testing.T, script string) {
		spec, err := trace.ParseWorkflowSpec(script)
		if err != nil {
			return
		}
		// Whatever parses must be a runnable graph...
		if err := spec.Validate(); err != nil {
			t.Fatalf("parsed spec fails validation: %v", err)
		}
		if len(spec.Stages) == 0 {
			t.Fatal("empty graph accepted")
		}
		if len(spec.Roots()) == 0 {
			t.Fatal("acyclic graph with no roots")
		}
		// ...and survive the Format/Parse round trip exactly.
		again, err := trace.ParseWorkflowSpec(trace.FormatWorkflowSpec(spec))
		if err != nil {
			t.Fatalf("re-parse of formatted spec: %v", err)
		}
		if len(again.Stages) != len(spec.Stages) {
			t.Fatalf("round trip lost stages: %d -> %d", len(spec.Stages), len(again.Stages))
		}
		for i := range spec.Stages {
			a, b := spec.Stages[i], again.Stages[i]
			if a.ID != b.ID || a.Benchmark != b.Benchmark || a.Offset != b.Offset ||
				strings.Join(a.Deps, ",") != strings.Join(b.Deps, ",") {
				t.Fatalf("round trip changed stage %d: %+v -> %+v", i, a, b)
			}
		}
		owner := map[string]string{}
		for _, id := range []int{1, 11} {
			r, err := workflow.NewRun(id, 0, spec)
			if err != nil {
				t.Fatalf("NewRun of an accepted spec: %v", err)
			}
			for i := 0; i < r.Len(); i++ {
				keys := []string{r.OutputKey(i)}
				if len(spec.Stages[i].Deps) == 0 {
					keys = append(keys, r.InputKeys(i)...)
				}
				for _, k := range keys {
					what := fmt.Sprintf("workflow %d stage %q", id, spec.Stages[i].ID)
					if prev, dup := owner[k]; dup {
						t.Fatalf("key %q belongs to %s and to %s", k, prev, what)
					}
					owner[k] = what
				}
			}
		}
	})
}
