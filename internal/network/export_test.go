package network

import "time"

// Scaled returns the fabric with the stochastic component's median scaled
// by k, used by the tail-latency sensitivity sweeps.
func (f Fabric) Scaled(k float64) Fabric {
	out := f
	out.FirstByte.Median = time.Duration(float64(f.FirstByte.Median) * k)
	return out
}
