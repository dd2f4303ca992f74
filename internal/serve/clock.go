// clock.go is the live engine's one wall-clock seam: every read of real
// time and every timed wait in this package goes through the three
// functions below, which map onto a virtual clock's Now and At. Engine
// time is the wall time elapsed since the engine was built (the basis of
// HybridTask.Arrived), so it starts near zero.

//dscslint:allow clockcheck the live engine's one wall-clock seam: engine time and timers read real time here and nowhere else in the package

package serve

import "time"

// wallEpoch stamps an engine's origin; Engine.now measures from it.
func wallEpoch() time.Time { return time.Now() }

// now is the engine's clock on the same basis as HybridTask.Arrived; the
// scheduling core and batch former are clock-free and take it as input.
func (e *Engine) now() time.Duration { return time.Since(e.start) }

// afterFunc runs f on its own goroutine once d of wall time has passed;
// the returned timer stops or re-arms it.
func afterFunc(d time.Duration, f func()) *time.Timer { return time.AfterFunc(d, f) }
