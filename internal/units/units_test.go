package units

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{512, "512B"},
		{2 * KB, "2.00KB"},
		{3500 * KB, "3.50MB"},
		{7 * GB, "7.00GB"},
		{2 * TB, "2.00TB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

// refBytesString is Bytes.String as fmt rendered it.
func refBytesString(b Bytes) string {
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

// TestBytesStringMatchesFormatReference pins the strconv rendering to the
// fmt one it replaces: at each unit's edges, at rounding half-points, and
// on arbitrary sizes; Append must add the same bytes after a prefix.
func TestBytesStringMatchesFormatReference(t *testing.T) {
	check := func(b Bytes) bool {
		want := refBytesString(b)
		return b.String() == want && string(b.Append([]byte("x="))) == "x="+want
	}
	for _, b := range []Bytes{
		0, 1, 999, 1023, KB, 2675, 5005, MB - 1, 4 * MiB, 1500 * MB, 2 * TB,
		-1, -KB, math.MaxInt64, math.MinInt64,
	} {
		if !check(b) {
			t.Errorf("Bytes(%d): String() = %q, want %q", int64(b), b.String(), refBytesString(b))
		}
	}
	if err := quick.Check(func(n int64) bool { return check(Bytes(n)) }, nil); err != nil {
		t.Error(err)
	}
}

// TestBytesAppendAllocations pins that appending to a buffer with room
// allocates nothing.
func TestBytesAppendAllocations(t *testing.T) {
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = (1500 * MB).Append(buf[:0]) }); n != 0 {
		t.Errorf("Bytes.Append allocates %.0f times, want 0", n)
	}
}

func TestTransferTime(t *testing.T) {
	// 1 GB at 1 GB/s takes one second.
	if got := GBps.TransferTime(GB); got != time.Second {
		t.Errorf("1GB at 1GB/s = %v, want 1s", got)
	}
	// 100 Gb/s link moves 12.5 GB/s.
	if got := Gbps(100).TransferTime(125 * MB); got != 10*time.Millisecond {
		t.Errorf("125MB at 100Gbps = %v, want 10ms", got)
	}
	if got := Bandwidth(0).TransferTime(GB); got != 0 {
		t.Errorf("zero bandwidth should give 0, got %v", got)
	}
	if got := GBps.TransferTime(-5); got != 0 {
		t.Errorf("negative bytes should give 0, got %v", got)
	}
}

func TestTransferTimeMonotonic(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := Bytes(a), Bytes(b)
		if x > y {
			x, y = y, x
		}
		return GBps.TransferTime(x) <= GBps.TransferTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerEnergyRoundTrip(t *testing.T) {
	p := Power(25)
	e := p.Times(2 * time.Second)
	if e != 50 {
		t.Fatalf("25W x 2s = %v, want 50J", e)
	}
	if back := e.Over(2 * time.Second); back != p {
		t.Fatalf("50J / 2s = %v, want 25W", back)
	}
	if Energy(1).Over(0) != 0 {
		t.Fatal("energy over zero duration should be 0 power")
	}
}

func TestCyclesDuration(t *testing.T) {
	// 1 GHz: one cycle is one nanosecond.
	if d := CyclesToDuration(1000, GHz); d != time.Microsecond {
		t.Errorf("1000 cycles @1GHz = %v, want 1us", d)
	}
	if c := DurationToCycles(time.Microsecond, GHz); c != 1000 {
		t.Errorf("1us @1GHz = %d cycles, want 1000", c)
	}
	// 300 MHz FPGA clock.
	if d := CyclesToDuration(300, 300*MHz); d != time.Microsecond {
		t.Errorf("300 cycles @300MHz = %v, want 1us", d)
	}
	if CyclesToDuration(100, 0) != 0 {
		t.Error("zero frequency should give zero duration")
	}
}

func TestCycleRoundTripProperty(t *testing.T) {
	f := func(c uint16) bool {
		d := CyclesToDuration(uint64(c), GHz)
		return DurationToCycles(d, GHz) == uint64(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatting(t *testing.T) {
	if s := Gbps(100).String(); s != "12.5GB/s" {
		t.Errorf("100Gbps = %q", s)
	}
	if s := Power(4.2).String(); s != "4.20W" {
		t.Errorf("power format = %q", s)
	}
	if s := Area(30.25).String(); s != "30.25mm2" {
		t.Errorf("area format = %q", s)
	}
	if s := Energy(0.0035).String(); s != "3.500mJ" {
		t.Errorf("energy format = %q", s)
	}
	if s := Frequency(1.5 * 1e9).String(); s != "1.50GHz" {
		t.Errorf("freq format = %q", s)
	}
	if s := Dollars(12.5).String(); s != "$12.50" {
		t.Errorf("dollars format = %q", s)
	}
}
