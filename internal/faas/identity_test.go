package faas

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"dscs/internal/platform"
	"dscs/internal/units"
	"dscs/internal/workload"
)

var updateIdentity = flag.Bool("update-identity", false, "rewrite testdata/identity.golden from this run")

// TestInvokeIdentityGolden pins every field of every Result the runners
// return from one seeded environment: all eight benchmarks on every
// platform, at batch 1, 2 and 8, warm and cold, two rounds in a fixed order
// (the second round overwrites what the first placed). Network jitter is
// sampled, so the table also pins the store's RNG split order. A change to
// the storage model underneath — a drifted die rotation, a page miscounted
// at a table boundary — fails here rather than three layers up in a
// simulation golden.
func TestInvokeIdentityGolden(t *testing.T) {
	store := testStore(t)
	var runners []*Runner
	for _, p := range platform.All() {
		runners = append(runners, NewRunner(store, p))
	}
	energy := func(e units.Energy) string { return strconv.FormatFloat(float64(e), 'g', -1, 64) }
	var sb strings.Builder
	for round := 0; round < 2; round++ {
		for _, b := range workload.Suite() {
			for _, r := range runners {
				for _, batch := range []int{1, 2, 8} {
					for _, cold := range []bool{false, true} {
						res, err := r.Invoke(b, Options{Batch: batch, Cold: cold})
						if err != nil {
							t.Fatalf("%s on %s batch %d cold %v: %v", b.Slug, r.Platform.Name(), batch, cold, err)
						}
						bd := res.Breakdown
						fmt.Fprintf(&sb, "r%d %s|%s|b%d|cold=%v stack=%d rread=%d rwrite=%d compute=%d devio=%d driver=%d coldstart=%d notify=%d energy=%s compute_energy=%s\n",
							round, b.Slug, r.Platform.Name(), batch, cold,
							bd.Stack, bd.RemoteRead, bd.RemoteWrite, bd.Compute, bd.DeviceIO,
							bd.Driver, bd.ColdStart, bd.Notify, energy(res.Energy), energy(res.ComputeEnergy))
					}
				}
			}
		}
	}
	got := sb.String()

	const path = "testdata/identity.golden"
	if *updateIdentity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
