package main

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
)

var updateSeries = flag.Bool("update-series", false, "rewrite testdata/all_series.golden from this run")

const seriesGolden = "testdata/all_series.golden"

// TestAllSeriesGolden pins `dscsbench -run all -series` at the default
// seed, every table, value and series point, at GOMAXPROCS 1, 2 and 4.
// Experiments fan their independent replays out across goroutines, so the
// output must not depend on how many run at once. A change meant to keep
// the results bit-identical is held to it here; a change that moves a
// result shows its first moved line, and regenerating the golden with
// -update-series puts the whole move in the diff.
func TestAllSeriesGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		var out bytes.Buffer
		if err := run(&out, "all", 42, true); err != nil {
			t.Fatal(err)
		}
		got := out.String()
		if *updateSeries {
			if err := os.WriteFile(seriesGolden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		raw, err := os.ReadFile(seriesGolden)
		if err != nil {
			t.Fatal(err)
		}
		if want := string(raw); got != want {
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("GOMAXPROCS %d: line %d differs\n got: %s\nwant: %s", procs, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("GOMAXPROCS %d: got %d lines, want %d", procs, len(gl), len(wl))
		}
	}
}
