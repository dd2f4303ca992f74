package sim

import (
	"math"
	"time"
)

// Quantile returns the latency at percentile p in [0, 1].
func (d LogNormal) Quantile(p float64) time.Duration {
	if d.Median <= 0 {
		return 0
	}
	z := NormQuantile(p)
	return time.Duration(float64(d.Median) * math.Exp(d.Sigma*z))
}

// Stop halts the run loop after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// RunUntil processes events with timestamps <= deadline. Events beyond the
// deadline stay queued; the clock is left at the deadline (or the final event
// time if the queue drained earlier).
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	e.stopped = false
	for !e.stopped {
		at, fromStream, ok := e.head()
		if !ok {
			break
		}
		if at > deadline {
			e.now = deadline
			return e.now
		}
		e.fire(fromStream)
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Pending reports how many events remain queued, arrivals included.
func (e *Engine) Pending() int { return len(e.heap) + len(e.arr.at) - e.arr.next }
