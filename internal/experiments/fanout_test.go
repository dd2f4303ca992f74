package experiments

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestConcurrentReplaysMatchSerial evaluates the experiments whose replays
// fan out, each from a fresh same-seed environment, first on one
// goroutine and then on two: the findings and series must be identical.
func TestConcurrentReplaysMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("two Fig 13 passes")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, id := range []string{"fig13", "ext-batchform"} {
		spec, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		var got [2]*Result
		for i, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			env, err := NewEnvironment(7)
			if err != nil {
				t.Fatal(err)
			}
			if got[i], err = spec.Run(env); err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", id, procs, err)
			}
		}
		if !reflect.DeepEqual(got[0].Values, got[1].Values) {
			t.Errorf("%s: values differ between GOMAXPROCS 1 and 2:\n%v\n%v", id, got[0].Values, got[1].Values)
		}
		if !reflect.DeepEqual(got[0].Series, got[1].Series) {
			t.Errorf("%s: series differ between GOMAXPROCS 1 and 2", id)
		}
		if got[0].Table.String() != got[1].Table.String() {
			t.Errorf("%s: tables differ between GOMAXPROCS 1 and 2:\n%s\n%s", id, got[0].Table, got[1].Table)
		}
	}
}

// TestFanOutRunsEveryIndexOnce checks the helper's contract: every index
// runs exactly once whatever the width, and the lowest-index error wins.
func TestFanOutRunsEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		var calls [9]atomic.Int32
		errLow, errHigh := errors.New("index 3"), errors.New("index 7")
		err := fanOut(len(calls), func(i int) error {
			calls[i].Add(1)
			switch i {
			case 3:
				return errLow
			case 7:
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Errorf("GOMAXPROCS %d: err = %v, want the lowest index's", procs, err)
		}
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Errorf("GOMAXPROCS %d: index %d ran %d times", procs, i, n)
			}
		}
	}
	if err := fanOut(0, func(int) error { return errors.New("ran") }); err != nil {
		t.Errorf("fanOut(0) = %v, want nil", err)
	}
}
