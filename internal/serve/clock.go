// clock.go is the live engine's one wall-clock seam: every read of real
// time and every wait on it in this package goes through the four
// functions below. Engine time is the wall time elapsed since the engine
// was built (the basis of HybridTask.Arrived), so it starts near zero.

//dscslint:allow clockcheck the live engine's one wall-clock seam: engine time, timers and sleeps read real time here and nowhere else in the package

package serve

import "time"

// wallEpoch stamps an engine's origin; Engine.now measures from it.
func wallEpoch() time.Time { return time.Now() }

// now is the engine's clock on the same basis as HybridTask.Arrived; the
// scheduling core and batch windows are clock-free and take it as input.
func (e *Engine) now() time.Duration { return time.Since(e.start) }

// afterFunc runs f on its own goroutine once d of wall time has passed;
// the returned timer stops or re-arms it.
func afterFunc(d time.Duration, f func()) *time.Timer { return time.AfterFunc(d, f) }

// sleep blocks the calling goroutine for d of wall time.
func sleep(d time.Duration) { time.Sleep(d) }
