package experiments

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestConcurrentReplaysMatchSerial evaluates the experiments whose replays
// fan out, each from a fresh same-seed environment, on one goroutine and
// then on two and four: the findings and series must be identical. At four
// every replay of a three-way fan-out runs at once.
func TestConcurrentReplaysMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("three Fig 13 passes")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	widths := []int{1, 2, 4}
	for _, id := range []string{"fig13", "ext-batchform", "ext-sched"} {
		spec, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		got := make([]*Result, len(widths))
		for i, procs := range widths {
			runtime.GOMAXPROCS(procs)
			env, err := NewEnvironment(7)
			if err != nil {
				t.Fatal(err)
			}
			if got[i], err = spec.Run(env); err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", id, procs, err)
			}
		}
		for i, procs := range widths[1:] {
			serial, wide := got[0], got[i+1]
			if !reflect.DeepEqual(serial.Values, wide.Values) {
				t.Errorf("%s: values differ between GOMAXPROCS 1 and %d:\n%v\n%v", id, procs, serial.Values, wide.Values)
			}
			if !reflect.DeepEqual(serial.Series, wide.Series) {
				t.Errorf("%s: series differ between GOMAXPROCS 1 and %d", id, procs)
			}
			if serial.Table.String() != wide.Table.String() {
				t.Errorf("%s: tables differ between GOMAXPROCS 1 and %d:\n%s\n%s", id, procs, serial.Table, wide.Table)
			}
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
