package metrics

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"dscs/internal/units"
)

// refCell is one AddRow cell as fmt rendered it.
func refCell(c interface{}) string {
	switch v := c.(type) {
	case float64:
		return fmt.Sprintf("%.2f", v)
	case string:
		return v
	}
	return fmt.Sprintf("%v", c)
}

// TestAddRowMatchesFormatReference pins every cell AddRow renders to the
// per-cell fmt rendering it replaces, for the types experiments pass and
// the float edges where strconv and fmt could part.
func TestAddRowMatchesFormatReference(t *testing.T) {
	cells := []interface{}{
		math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 0.005, 2.675, -1.5,
		"", "ppe-detection", 0, -42, math.MaxInt, true, false,
		1500 * time.Millisecond, time.Duration(0),
		units.Bytes(1023), 2 * units.TB, units.Power(4.2), units.Area(30.25), units.Energy(0.0035),
		units.Frequency(1.5e9), units.Dollars(12.5), 12.5 * units.GBps,
		float32(2.5), int64(7), uint(3), nil, errors.New("boom"), struct{ A, B int }{1, 2},
	}
	tb := NewTable("t")
	for _, c := range cells {
		tb.AddRow(c)
	}
	// One row of every cell, so each cell's bounds within the row's
	// shared string are checked too.
	tb.AddRow(cells...)
	for i, c := range cells {
		want := refCell(c)
		if got := tb.Rows[i]; len(got) != 1 || got[0] != want {
			t.Errorf("AddRow(%#v) = %q, want [%q]", c, got, want)
		}
		if got := tb.Rows[len(cells)][i]; got != want {
			t.Errorf("cell %d of the full row = %q, want %q", i, got, want)
		}
	}
	if got := len(tb.Rows[len(cells)]); got != len(cells) {
		t.Errorf("full row has %d cells, want %d", got, len(cells))
	}
	tb.AddRow()
	if got := tb.Rows[len(tb.Rows)-1]; len(got) != 0 {
		t.Errorf("empty AddRow = %q, want no cells", got)
	}
}

// TestAddRowAllocations pins a row's cost: its cells slice and the one
// string they share, however many cells it holds.
func TestAddRowAllocations(t *testing.T) {
	cells := []interface{}{"Dim128-4.19MB-DDR5", 1234.5678, 17.25, true, 3}
	tb := NewTable("t", "a", "b", "c", "d", "e")
	n := testing.AllocsPerRun(100, func() {
		tb.Rows = tb.Rows[:0]
		tb.AddRow(cells...)
	})
	if n > 2 {
		t.Errorf("a five-cell AddRow allocates %.0f times, want <= 2", n)
	}
}

// BenchmarkAddRow times one five-cell row of the kinds the figures print.
func BenchmarkAddRow(b *testing.B) {
	cells := []interface{}{"Dim128-4.19MB-DDR5", 1234.5678, 17.25, true, 3}
	tb := NewTable("t", "a", "b", "c", "d", "e")
	b.ReportAllocs()
	for b.Loop() {
		tb.Rows = tb.Rows[:0]
		tb.AddRow(cells...)
	}
}
