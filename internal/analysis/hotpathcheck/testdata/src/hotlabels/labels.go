// Package hotlabels reproduces the hot-path allocation regression class:
// telemetry labels and map keys constructed per operation inside the
// submit→dispatch path, undoing the pre-resolved-handle discipline.
package hotlabels

import "fmt"

type counters struct {
	byKey map[string]int
}

// Submit is a hot-path root; everything it reaches inherits the
// discipline.
//
//dscslint:hotpath
func Submit(c *counters, pool string, n int) {
	record(c, pool, n)
}

func Dispatch(c *counters, pool string) { record(c, pool, 1) } //dscslint:hotpath

// record is not annotated itself but is reachable from both roots.
func record(c *counters, pool string, n int) {
	key := fmt.Sprintf("%s/%d", pool, n)       // want `fmt\.Sprintf formats \(and allocates\) in hot-path function record \(reachable from //dscslint:hotpath root Submit\)`
	label := "submit_total{pool=" + pool + "}" // want `string concatenation builds a label/key at runtime in hot-path function record`
	if c.byKey == nil {
		c.byKey = make(map[string]int) // want `map allocation in hot-path function record`
	}
	_ = map[string]bool{pool: true} // want `map literal allocates in hot-path function record`
	c.byKey[key] += n
	c.byKey[label] += n
}

// cold is NOT reachable from any root: the same spellings are fine here.
func cold(pool string, n int) string {
	m := map[string]int{pool: n}
	_ = m
	return fmt.Sprintf("%s/%d", pool, n)
}

// constKey: constant-folded concatenation allocates nothing at runtime.
//
//dscslint:hotpath
func constKey(c *counters) {
	const prefix = "serve_"
	c.byKey[prefix+"submit_total"]++
}

// missPath: a once-per-series cold branch inside a hot function carries
// a line-scoped allow with its reason.
//
//dscslint:hotpath
func missPath(c *counters, pool string) {
	if _, ok := c.byKey[pool]; !ok {
		//dscslint:allow hotpathcheck once-per-series miss; the steady state never takes this branch
		c.byKey[fmt.Sprintf("cold/%s", pool)] = 0
	}
	c.byKey[pool]++
}

// missCall: an allowed call is a cold edge. derive is reached only through
// it, so it does not inherit the discipline.
//
//dscslint:hotpath
func missCall(c *counters, pool string) {
	if _, ok := c.byKey[pool]; !ok {
		//dscslint:allow hotpathcheck once-per-series miss; the steady state never takes this branch
		c.byKey[derive(pool)] = 0
	}
	c.byKey[pool]++
}

func derive(pool string) string {
	return fmt.Sprintf("derived/%s", pool)
}

// closures built on the hot path run on their own schedule; their bodies
// are not this analyzer's concern.
//
//dscslint:hotpath
func spawns(c *counters, pool string, run func(func())) {
	run(func() {
		c.byKey[fmt.Sprintf("bg/%s", pool)]++
	})
}
