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

var updateIdentity = flag.Bool("update-identity", false, "rewrite the testdata/identity*.golden files from this run")

// TestInvokeIdentityGolden pins every field of every Result the runners
// return from one seeded environment: all eight benchmarks on every
// platform, at batch 1, 2 and 8, warm and cold, two rounds in a fixed order
// (the second round overwrites what the first placed). Network jitter is
// sampled, so the table also pins the store's RNG split order. A change to
// the storage model underneath — a drifted die rotation, a page miscounted
// at a table boundary — fails here rather than three layers up in a
// simulation golden.
func TestInvokeIdentityGolden(t *testing.T) {
	checkIdentityGolden(t, "testdata/identity.golden", identityTable(t, identityRun{quantiles: []float64{0}}))
}

// TestInvokeIdentityGoldenQuantile is the same table on the analytic path
// the live engine, the gateway and Figs 9–17 take: every network component
// priced at quantile 0.5, then, on the same store, at 0.99.
func TestInvokeIdentityGoldenQuantile(t *testing.T) {
	checkIdentityGolden(t, "testdata/identity_quantile.golden", identityTable(t, identityRun{quantiles: []float64{0.5, 0.99}}))
}

// TestInvokeIdentityGoldenFaulted is the table with DSCS drive dscs-0 down
// from the start, warm, at batch 1 and 2, sampled and then at quantile 0.5.
// An input whose DSCS replica lives on the dead drive sends every
// in-storage platform to the remote-storage body, and every read whose
// hashed replica is there fails over to a live one.
func TestInvokeIdentityGoldenFaulted(t *testing.T) {
	checkIdentityGolden(t, "testdata/identity_faulted.golden", identityTable(t, identityRun{
		down: "dscs-0", batches: []int{1, 2}, warmOnly: true, quantiles: []float64{0, 0.5},
	}))
}

// identityRun shapes one identity table.
type identityRun struct {
	down      string // node failed before the first invocation, if any
	batches   []int  // batch sizes; nil means 1, 2 and 8
	warmOnly  bool   // leave out the cold invocations
	quantiles []float64
}

// identityTable runs the table once per quantile, in order, on one fresh
// store and returns one line per Result. Lines carry a quantile prefix only
// when the quantile is positive, so the sampled table reads as it always
// has.
func identityTable(t *testing.T, run identityRun) string {
	t.Helper()
	store := testStore(t)
	if run.down != "" {
		if err := store.FailNode(run.down); err != nil {
			t.Fatal(err)
		}
	}
	batches, colds := run.batches, []bool{false, true}
	if batches == nil {
		batches = []int{1, 2, 8}
	}
	if run.warmOnly {
		colds = colds[:1]
	}
	var runners []*Runner
	for _, p := range platform.All() {
		runners = append(runners, NewRunner(store, p))
	}
	energy := func(e units.Energy) string { return strconv.FormatFloat(float64(e), 'g', -1, 64) }
	var sb strings.Builder
	for _, q := range run.quantiles {
		prefix := ""
		if q > 0 {
			prefix = "q" + strconv.FormatFloat(q, 'g', -1, 64) + " "
		}
		for round := 0; round < 2; round++ {
			for _, b := range workload.Suite() {
				for _, r := range runners {
					for _, batch := range batches {
						for _, cold := range colds {
							res, err := r.Invoke(b, Options{Batch: batch, Cold: cold, Quantile: q})
							if err != nil {
								t.Fatalf("%s on %s batch %d cold %v q %v: %v", b.Slug, r.Platform.Name(), batch, cold, q, err)
							}
							bd := res.Breakdown
							fmt.Fprintf(&sb, "%sr%d %s|%s|b%d|cold=%v stack=%d rread=%d rwrite=%d compute=%d devio=%d driver=%d coldstart=%d notify=%d energy=%s compute_energy=%s\n",
								prefix, round, b.Slug, r.Platform.Name(), batch, cold,
								bd.Stack, bd.RemoteRead, bd.RemoteWrite, bd.Compute, bd.DeviceIO,
								bd.Driver, bd.ColdStart, bd.Notify, energy(res.Energy), energy(res.ComputeEnergy))
						}
					}
				}
			}
		}
	}
	return sb.String()
}

// checkIdentityGolden compares got with the golden file at path, or
// rewrites the file under -update-identity.
func checkIdentityGolden(t *testing.T, path, got string) {
	t.Helper()
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
