package workflow

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dscs/internal/trace"
)

// fuzzBytes hands out a fuzz input a byte at a time, zeros once spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// fuzzIDs is the stage-ID alphabet the decoded specs draw from: few enough
// names that duplicates and cycles are common, plus every kind of invalid
// ID. Dependencies also draw "ghost", which no stage declares.
var fuzzIDs = []string{"a", "b", "c", "d", "e", "f", "g", "h", "", "a b", "x:y", "in/a", "é"}

// decodeSpec builds a spec from fuzz bytes: up to eight stages with random
// IDs, benchmarks, offsets and dependency lists, valid or not. A zero
// stage count yields the empty graph or, half the time, a nil spec.
func decodeSpec(b *fuzzBytes) *trace.WorkflowSpec {
	n := int(b.next() % 9)
	if n == 0 && b.next()%2 == 0 {
		return nil
	}
	spec := &trace.WorkflowSpec{}
	for i := 0; i < n; i++ {
		st := trace.WorkflowStage{ID: fuzzIDs[int(b.next())%len(fuzzIDs)], Benchmark: "x"}
		if b.next()%16 == 15 {
			st.Benchmark = ""
		}
		if c := b.next(); c == 255 {
			st.Offset = -time.Second
		} else {
			st.Offset = time.Duration(c%4) * 100 * time.Millisecond
		}
		for d := int(b.next() % 4); d > 0; d-- {
			if c := int(b.next()) % (len(fuzzIDs) + 1); c < len(fuzzIDs) {
				st.Deps = append(st.Deps, fuzzIDs[c])
			} else {
				st.Deps = append(st.Deps, "ghost")
			}
		}
		spec.Stages = append(spec.Stages, st)
	}
	return spec
}

// FuzzRunMatchesReference holds the one-pass graph and the flat Run to the
// map-based code they replaced (reference_test.go): on random specs the
// same error text from Validate and NewRun, and on every accepted spec the
// same keys in the same order, then — through a random sequence of Start,
// Complete, Drop, Strand and StrandRemaining — the same returns, unlock
// order and instants, states, tallies and makespans after every call, and
// tallies that agree with the states (Conservation).
func FuzzRunMatchesReference(f *testing.F) {
	// A diamond a → {b, c} → d run to completion, and the same graph with
	// a dropped branch.
	diamond := []byte{4, 0, 0, 0, 0, 1, 0, 0, 1, 0, 2, 0, 0, 1, 0, 3, 0, 0, 2, 1, 2, 0, 7, 0, 10}
	f.Add(diamond, []byte{0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 2, 1, 1, 3, 1})
	f.Add(diamond, []byte{0, 0, 0, 1, 0, 1, 3, 1, 1, 1, 2, 1, 5, 0, 2})
	f.Add(diamond, []byte{4, 0, 1, 0, 0, 0, 5, 3, 3})
	f.Add([]byte{3, 0, 0, 0, 1, 1, 1, 0, 1, 2, 2, 0, 1, 1, 0, 9}, []byte{0, 0, 0})
	f.Add([]byte{0, 1}, []byte{})
	f.Fuzz(func(t *testing.T, script, ops []byte) {
		b := fuzzBytes(script)
		spec := decodeSpec(&b)
		id := int(int16(uint16(b.next())<<8 | uint16(b.next())))
		arrived := time.Duration(b.next()) * 10 * time.Millisecond

		errText := func(err error) string {
			if err == nil {
				return "<nil>"
			}
			return err.Error()
		}
		if got, want := errText(spec.Validate()), errText(refValidate(spec)); got != want {
			t.Fatalf("Validate: %s, reference: %s", got, want)
		}
		r, err := NewRun(id, arrived, spec)
		ref, refErr := newRefRun(id, arrived, spec)
		if got, want := errText(err), errText(refErr); got != want {
			t.Fatalf("NewRun: %s, reference: %s", got, want)
		}
		if err != nil {
			return
		}

		n := r.Len()
		if n != len(ref.state) {
			t.Fatalf("Len = %d, reference %d", n, len(ref.state))
		}
		for i := 0; i < n; i++ {
			if got, want := r.OutputKey(i), ref.outKeys[i]; got != want {
				t.Fatalf("OutputKey(%d) = %q, reference %q", i, got, want)
			}
			keys := r.InputKeys(i)
			if !slices.Equal(keys, ref.inKeys[i]) {
				t.Fatalf("InputKeys(%d) = %q, reference %q", i, keys, ref.inKeys[i])
			}
			if cap(keys) != len(keys) {
				t.Fatalf("InputKeys(%d) has capacity %d beyond its %d keys", i, cap(keys), len(keys))
			}
		}
		if got, want := r.Roots(), spec.Roots(); !slices.Equal(got, want) {
			t.Fatalf("Roots = %v, spec's %v", got, want)
		}

		check := func(step string) {
			t.Helper()
			for i := 0; i < n; i++ {
				if r.State(i) != ref.state[i] || r.UnlockedAt(i) != ref.unlockedAt[i] {
					t.Fatalf("after %s: stage %d is %v unlocked at %v, reference %v at %v",
						step, i, r.State(i), r.UnlockedAt(i), ref.state[i], ref.unlockedAt[i])
				}
			}
			if r.Completed() != ref.completed || r.DroppedCount() != ref.dropped || r.StrandedCount() != ref.stranded {
				t.Fatalf("after %s: tallies %d/%d/%d, reference %d/%d/%d", step,
					r.Completed(), r.DroppedCount(), r.StrandedCount(), ref.completed, ref.dropped, ref.stranded)
			}
			if r.Settled() != ref.Settled() || r.Succeeded() != ref.Succeeded() {
				t.Fatalf("after %s: settled/succeeded %v/%v, reference %v/%v", step,
					r.Settled(), r.Succeeded(), ref.Settled(), ref.Succeeded())
			}
			ms, ok := r.Makespan()
			refMS, refOK := ref.Makespan()
			if ms != refMS || ok != refOK {
				t.Fatalf("after %s: makespan %v/%v, reference %v/%v", step, ms, ok, refMS, refOK)
			}
			if err := r.Conservation(); err != nil {
				t.Fatalf("after %s: %v", step, err)
			}
		}
		check("NewRun")

		o := fuzzBytes(ops)
		now := arrived
		for len(o) > 0 {
			op, i := o.next()%6, int(o.next())%n
			now += time.Duration(o.next()%4) * 50 * time.Millisecond
			var step string
			switch op {
			case 0:
				step = fmt.Sprintf("Start(%v)", now)
				if got, want := r.Start(now), ref.Start(now); !slices.Equal(got, want) {
					t.Fatalf("%s = %v, reference %v", step, got, want)
				}
			case 1, 2:
				step = fmt.Sprintf("Complete(%d, %v)", i, now)
				if got, want := r.Complete(i, now), ref.Complete(i, now); !slices.Equal(got, want) {
					t.Fatalf("%s = %v, reference %v", step, got, want)
				}
			case 3:
				step = fmt.Sprintf("Drop(%d, %v)", i, now)
				if got, want := r.Drop(i, now), ref.Drop(i, now); got != want {
					t.Fatalf("%s = %d, reference %d", step, got, want)
				}
			case 4:
				step = fmt.Sprintf("Strand(%d, %v)", i, now)
				if got, want := r.Strand(i, now), ref.Strand(i, now); got != want {
					t.Fatalf("%s = %d, reference %d", step, got, want)
				}
			case 5:
				step = fmt.Sprintf("StrandRemaining(%v)", now)
				if got, want := r.StrandRemaining(now), ref.StrandRemaining(now); got != want {
					t.Fatalf("%s = %d, reference %d", step, got, want)
				}
			}
			check(step)
		}
	})
}
