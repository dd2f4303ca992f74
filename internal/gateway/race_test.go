//go:build race

package gateway

// The race detector's instrumentation allocates, so the pinned count only
// holds without it.
func init() { raceDetector = true }
