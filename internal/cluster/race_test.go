//go:build race

package cluster

// The race detector's instrumentation allocates, so the pinned counts only
// hold without it.
func init() { raceDetector = true }
