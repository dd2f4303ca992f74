package units

import (
	"math"
	"time"
)

// DurationToCycles converts wall time into cycles at frequency f, rounding
// to the nearest cycle.
func DurationToCycles(d time.Duration, f Frequency) uint64 {
	if f <= 0 || d <= 0 {
		return 0
	}
	return uint64(math.Round(d.Seconds() * float64(f)))
}

// Gbps converts a link rate quoted in gigabits per second.
func Gbps(g float64) Bandwidth { return Bandwidth(g * 1e9 / 8) }
