// Package units defines the physical quantities shared across the
// simulator: data sizes, bandwidths, energy, power, and silicon area.
//
// All simulation latencies use time.Duration on a virtual clock that starts
// at zero. The DSA runs at 1 GHz, so one accelerator cycle equals one
// nanosecond; helpers here convert between cycles and durations for other
// clock frequencies as well.
package units

import (
	"fmt"
	"math"
	"time"
)

// Bytes is a data size in bytes.
type Bytes int64

// Decimal (storage/network) and binary (memory) size constants.
const (
	KB Bytes = 1000
	MB Bytes = 1000 * KB
	GB Bytes = 1000 * MB
	TB Bytes = 1000 * GB

	KiB Bytes = 1024
	MiB Bytes = 1024 * KiB
)

// String renders the size with a human-friendly unit.
func (b Bytes) String() string {
	switch {
	case b >= TB:
		return fmt.Sprintf("%.2fTB", float64(b)/float64(TB))
	case b >= GB:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(KB))
	}
	return fmt.Sprintf("%dB", int64(b))
}

// Bandwidth is a transfer rate in bytes per second.
type Bandwidth float64

// Common bandwidth units.
const (
	MBps Bandwidth = 1e6
	GBps Bandwidth = 1e9
)

// TransferTime returns how long moving n bytes takes at bandwidth bw.
// A non-positive bandwidth yields zero to keep degenerate configs safe.
func (bw Bandwidth) TransferTime(n Bytes) time.Duration {
	if bw <= 0 || n <= 0 {
		return 0
	}
	sec := float64(n) / float64(bw)
	return time.Duration(sec * float64(time.Second))
}

// String renders the bandwidth in GB/s or MB/s.
func (bw Bandwidth) String() string {
	switch {
	case bw >= GBps:
		return fmt.Sprintf("%.1fGB/s", float64(bw)/1e9)
	case bw >= MBps:
		return fmt.Sprintf("%.1fMB/s", float64(bw)/1e6)
	}
	return fmt.Sprintf("%.0fB/s", float64(bw))
}

// Energy is an amount of energy in joules.
type Energy float64

// Energy units.
const (
	MilliJoule Energy = 1e-3
	MicroJoule Energy = 1e-6
	PicoJoule  Energy = 1e-12
)

// String renders the energy with an SI prefix.
func (e Energy) String() string {
	switch {
	case e >= 1:
		return fmt.Sprintf("%.3fJ", float64(e))
	case e >= MilliJoule:
		return fmt.Sprintf("%.3fmJ", float64(e)/1e-3)
	case e >= MicroJoule:
		return fmt.Sprintf("%.3fuJ", float64(e)/1e-6)
	}
	return fmt.Sprintf("%.3fnJ", float64(e)/1e-9)
}

// Power is a power draw in watts.
type Power float64

// String renders the power in watts.
func (p Power) String() string { return fmt.Sprintf("%.2fW", float64(p)) }

// Times returns the energy consumed by drawing p for d.
func (p Power) Times(d time.Duration) Energy {
	return Energy(float64(p) * d.Seconds())
}

// Over returns the average power implied by spending e over d.
func (e Energy) Over(d time.Duration) Power {
	if d <= 0 {
		return 0
	}
	return Power(float64(e) / d.Seconds())
}

// Area is a silicon area in square millimetres.
type Area float64

// String renders the area in mm^2.
func (a Area) String() string { return fmt.Sprintf("%.2fmm2", float64(a)) }

// Frequency is a clock rate in hertz.
type Frequency float64

// Frequency units.
const (
	MHz Frequency = 1e6
	GHz Frequency = 1e9
)

// String renders the frequency in GHz or MHz.
func (f Frequency) String() string {
	if f >= GHz {
		return fmt.Sprintf("%.2fGHz", float64(f)/1e9)
	}
	return fmt.Sprintf("%.0fMHz", float64(f)/1e6)
}

// CyclesToDuration converts a cycle count at frequency f into wall time,
// rounding to the nearest nanosecond.
func CyclesToDuration(cycles uint64, f Frequency) time.Duration {
	if f <= 0 {
		return 0
	}
	sec := float64(cycles) / float64(f)
	return time.Duration(math.Round(sec * float64(time.Second)))
}

// Dollars is a cost in US dollars.
type Dollars float64

// String renders the cost with two decimals.
func (d Dollars) String() string { return fmt.Sprintf("$%.2f", float64(d)) }
