// Package refkernel is the benchmark's speed reference: a fixed,
// allocating, standard-library-only unit of work whose cost moves with the
// host the same way the system under test's does. On the 2-vCPU guest the
// benchmark targets, drift sits in the allocation/GC/memory path; a
// JSON round-trip plus map inserts co-varies with it, a pure-compute or
// memcpy kernel does not. See ../README.md.
//
// The package imports nothing from this module, so no change to the system
// under test can move the reference.
package refkernel

import (
	"encoding/json"
	"time"
)

// doc is the fixed document every iteration round-trips.
type doc struct {
	Application string  `json:"application"`
	Platform    string  `json:"platform"`
	TotalMS     float64 `json:"total_ms"`
	Batch       int     `json:"batch"`
}

var fixed = doc{Application: "asset-damage", Platform: "DSCS-Serverless", TotalMS: 41.6180339887, Batch: 8}

// Iter is one unit of reference work: marshal and unmarshal the fixed
// document, then 16 inserts into a fresh map. It returns a value derived
// from the results so the compiler cannot discard them.
func Iter() int {
	buf, err := json.Marshal(&fixed)
	if err != nil {
		panic(err)
	}
	var back doc
	if err := json.Unmarshal(buf, &back); err != nil {
		panic(err)
	}
	m := make(map[int]int)
	for i := 0; i < 16; i++ {
		m[i*7+back.Batch] = i
	}
	return len(m) + len(buf)
}

func loop(n int) int {
	sum := 0
	for i := 0; i < n; i++ {
		sum += Iter()
	}
	return sum
}

// Slice runs n iterations on the calling goroutine and returns the observed
// nanoseconds per iteration.
func Slice(n int) float64 {
	start := time.Now()
	loop(n)
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// DualSlice runs n iterations on each of two goroutines at once and returns
// the nanoseconds per iteration until both are done. With GOMAXPROCS 2 it
// senses both processors, which a workload with two clients leans on and
// the single-goroutine Slice does not.
func DualSlice(n int) float64 {
	done := make(chan int)
	start := time.Now()
	go func() { done <- loop(n) }()
	loop(n)
	<-done
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// Observe is the speed observation the benchmark normalises by: the mean of
// a single and a dual slice of n iterations each.
func Observe(n int) float64 {
	return (Slice(n) + DualSlice(n)) / 2
}
