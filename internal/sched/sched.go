// sched.go is the Prometheus-style telemetry registry used for busy
// tracking, fail-over decisions, and the at-scale measurements. The
// scheduler of Section 5.3 — a centralized FCFS queue over run-to-completion
// instances — is FCFSPolicy over HybridQueue (hybrid.go).

package sched

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// cell is one metric's storage: a float64 carried as atomic bits, so every
// Inc/Set on the serving hot path is a handful of atomic instructions with
// no lock and no allocation. Counters add via a CAS loop (float addition
// is not a single atomic op); gauges are a plain atomic store.
type cell struct{ bits atomic.Uint64 }

func (c *cell) add(delta float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (c *cell) set(v float64) { c.bits.Store(math.Float64bits(v)) }
func (c *cell) load() float64 { return math.Float64frombits(c.bits.Load()) }

// Telemetry is a minimal Prometheus-style metric registry. Writes are
// lock-free: names resolve through a sync.Map to atomic cells, and callers
// on a hot path can pre-resolve a name once into a CounterHandle or
// GaugeHandle so each update is a single atomic add/store with no map
// traffic at all.
type Telemetry struct {
	counters sync.Map // name -> *cell
	gauges   sync.Map // name -> *cell
}

// NewTelemetry returns an empty registry.
func NewTelemetry() *Telemetry {
	return &Telemetry{}
}

// counterCell resolves (or creates) a counter's cell.
func (t *Telemetry) counterCell(name string) *cell {
	if c, ok := t.counters.Load(name); ok {
		return c.(*cell)
	}
	c, _ := t.counters.LoadOrStore(name, new(cell))
	return c.(*cell)
}

// gaugeCell resolves (or creates) a gauge's cell.
func (t *Telemetry) gaugeCell(name string) *cell {
	if c, ok := t.gauges.Load(name); ok {
		return c.(*cell)
	}
	c, _ := t.gauges.LoadOrStore(name, new(cell))
	return c.(*cell)
}

// Inc adds delta to a counter.
func (t *Telemetry) Inc(name string, delta float64) {
	t.counterCell(name).add(delta)
}

// Set records a gauge value.
func (t *Telemetry) Set(name string, v float64) {
	t.gaugeCell(name).set(v)
}

// SetDuration records a gauge in milliseconds — the unit the latency
// gauges (serve_latency_p50/p95/p99 and friends) share with the paper's
// figures.
func (t *Telemetry) SetDuration(name string, d time.Duration) {
	t.Set(name, float64(d)/float64(time.Millisecond))
}

// Unset removes a gauge from the registry — invalidation, not zeroing:
// a dropped series disappears from /metrics instead of reporting a stale
// or misleading zero. A handle resolved before the Unset keeps writing to
// the orphaned cell; re-resolve after invalidating.
func (t *Telemetry) Unset(name string) {
	t.gauges.Delete(name)
}

// Counter reads a counter.
func (t *Telemetry) Counter(name string) float64 {
	if c, ok := t.counters.Load(name); ok {
		return c.(*cell).load()
	}
	return 0
}

// Gauge reads a gauge.
func (t *Telemetry) Gauge(name string) float64 {
	if c, ok := t.gauges.Load(name); ok {
		return c.(*cell).load()
	}
	return 0
}

// CounterHandle pre-resolves a counter for hot-path use: the name lookup
// happens once, and every Inc after that is one atomic CAS add. The zero
// handle is a valid no-op (harness code builds bare pools without a
// registry).
type CounterHandle struct{ c *cell }

// Inc adds delta to the counter.
func (h CounterHandle) Inc(delta float64) {
	if h.c != nil {
		h.c.add(delta)
	}
}

// CounterHandle resolves (or registers) a counter once; the returned
// handle updates it without further map lookups.
func (t *Telemetry) CounterHandle(name string) CounterHandle {
	return CounterHandle{c: t.counterCell(name)}
}

// GaugeHandle pre-resolves a gauge for hot-path use: the name lookup
// happens once, and every Set after that is one atomic store. The zero
// handle is a valid no-op.
type GaugeHandle struct{ c *cell }

// Set records the gauge value.
func (h GaugeHandle) Set(v float64) {
	if h.c != nil {
		h.c.set(v)
	}
}

// SetDuration records the gauge in milliseconds (see Telemetry.SetDuration).
func (h GaugeHandle) SetDuration(d time.Duration) {
	if h.c != nil {
		h.c.set(float64(d) / float64(time.Millisecond))
	}
}

// GaugeHandle resolves (or registers) a gauge once; the returned handle
// updates it without further map lookups.
func (t *Telemetry) GaugeHandle(name string) GaugeHandle {
	return GaugeHandle{c: t.gaugeCell(name)}
}

// Render dumps the registry in exposition-format-like lines, sorted.
func (t *Telemetry) Render() string {
	var names []string
	t.counters.Range(func(k, v any) bool {
		names = append(names, fmt.Sprintf("%s %g", k.(string), v.(*cell).load()))
		return true
	})
	t.gauges.Range(func(k, v any) bool {
		names = append(names, fmt.Sprintf("%s %g", k.(string), v.(*cell).load()))
		return true
	})
	sort.Strings(names)
	out := ""
	for _, l := range names {
		out += l + "\n"
	}
	return out
}
