package faas

import (
	"strings"
	"testing"
	"time"

	"dscs/internal/platform"
	"dscs/internal/trace"
	"dscs/internal/workload"
)

func TestScatterBeatsSingleDriveAtLargeBatch(t *testing.T) {
	store := testStore(t) // 4 SSD + 2 DSCS nodes
	r := NewRunner(store, platform.DSCS())
	b := workload.PPEDetection()
	opt := Options{Quantile: 0.5, Batch: 8}

	single, err := r.Invoke(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	scattered, err := r.InvokeScattered(b, opt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if scattered.Total() >= single.Total() {
		t.Errorf("scatter across 2 drives (%v) should beat one drive (%v)",
			scattered.Total(), single.Total())
	}
	if scattered.Energy <= 0 || scattered.ComputeEnergy <= 0 {
		t.Error("scatter must account energy")
	}
}

func TestScatterDegradesToInvoke(t *testing.T) {
	store := testStore(t)
	r := NewRunner(store, platform.DSCS())
	b := workload.Moderation()
	opt := Options{Quantile: 0.5, Batch: 4}
	direct, err := r.Invoke(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	one, err := r.InvokeScattered(b, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Total() != direct.Total() {
		t.Errorf("parts=1 must equal Invoke: %v vs %v", one.Total(), direct.Total())
	}
}

func TestScatterValidation(t *testing.T) {
	store := testStore(t)
	// Wrong platform.
	cpu := NewRunner(store, platform.BaselineCPU())
	if _, err := cpu.InvokeScattered(workload.Chatbot(), Options{Batch: 4}, 2); err == nil {
		t.Error("scatter on a CPU runner must fail")
	}
	// Batch smaller than partition count.
	dscs := NewRunner(store, platform.DSCS())
	if _, err := dscs.InvokeScattered(workload.Chatbot(), Options{Batch: 1}, 4); err == nil {
		t.Error("batch < parts must fail")
	}
}

func TestScatterPartitionsSerializeOnOneDrive(t *testing.T) {
	store := testStore(t)
	r := NewRunner(store, platform.DSCS())
	b := workload.Clinical()
	opt := Options{Quantile: 0.5, Batch: 8}
	// More partitions than drives: extra partitions serialize per drive,
	// so 8 partitions on 2 drives cannot be faster than 2 partitions.
	two, err := r.InvokeScattered(b, opt, 2)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := r.InvokeScattered(b, opt, 8)
	if err != nil {
		t.Fatal(err)
	}
	if eight.Total() < two.Total()/2 {
		t.Errorf("8 partitions (%v) implausibly faster than 2 (%v) on 2 drives",
			eight.Total(), two.Total())
	}
}

// TestScatterEmptyFanOut pins the degenerate fan-outs: zero and negative
// partition counts are an empty scatter, which degrades to a plain Invoke
// rather than erroring or partitioning by a nonsense count.
func TestScatterEmptyFanOut(t *testing.T) {
	store := testStore(t)
	r := NewRunner(store, platform.DSCS())
	b := workload.Moderation()
	opt := Options{Quantile: 0.5, Batch: 4}
	direct, err := r.Invoke(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{0, -3} {
		res, err := r.InvokeScattered(b, opt, parts)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		if res.Total() != direct.Total() {
			t.Errorf("parts=%d must equal Invoke: %v vs %v", parts, res.Total(), direct.Total())
		}
	}
}

// TestScatterSurvivesSingleDrive seeds the partitions across both DSCS
// drives, kills one, and repairs: ReReplicate re-homes the lost DSCS
// replicas onto the survivor, so the next scatter completes with every
// partition serialized on one drive — degraded parallelism, not an error.
func TestScatterSurvivesSingleDrive(t *testing.T) {
	store := testStore(t)
	r := NewRunner(store, platform.DSCS())
	b := workload.Clinical()
	opt := Options{Quantile: 0.5, Batch: 8}
	healthy, err := r.InvokeScattered(b, opt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.FailNode("dscs-1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.ReReplicate("dscs-1"); err != nil {
		t.Fatal(err)
	}
	degraded, err := r.InvokeScattered(b, opt, 2)
	if err != nil {
		t.Fatalf("scatter after repair onto one drive: %v", err)
	}
	if degraded.Total() <= 0 {
		t.Fatalf("degenerate result %+v", degraded)
	}
	if degraded.Total() < healthy.Total() {
		t.Fatalf("serialized scatter (%v) cannot beat the two-drive run (%v)",
			degraded.Total(), healthy.Total())
	}
}

// TestScatterFanInStrandedByFaultScript replays a drive-down fault script
// against the store and then scatters: with every DSCS drive dead a
// partition has no healthy replica to fan in from, so the branch surfaces
// the stranding as an error — never a panic, never a silent accept.
func TestScatterFanInStrandedByFaultScript(t *testing.T) {
	store := testStore(t)
	r := NewRunner(store, platform.DSCS())
	faults, err := trace.ParseFaultScript("0s:drive-down:dscs-0;0s:drive-down:dscs-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range faults {
		if !ev.Kind.Down() || ev.Kind.Pool() {
			t.Fatalf("unexpected fault event %v", ev)
		}
		if err := store.FailNode(ev.Target); err != nil {
			t.Fatal(err)
		}
	}
	_, err = r.InvokeScattered(workload.PPEDetection(), Options{Quantile: 0.5, Batch: 8}, 2)
	if err == nil {
		t.Fatal("scatter across dead drives silently succeeded")
	}
	if !strings.Contains(err.Error(), "no healthy DSCS replica") {
		t.Fatalf("error %q does not name the stranded partition", err)
	}
}

// TestScatterChargesDuplicateStacks pins the Figure 16 duplicates' stack
// cost on the scattered path, as on the single-drive one: one more
// accelerated function is one more Stack.PerFunction().
func TestScatterChargesDuplicateStacks(t *testing.T) {
	r := NewRunner(testStore(t), platform.DSCS())
	b := workload.Clinical()
	var stack [2]time.Duration
	for extra := range stack {
		res, err := r.InvokeScattered(b, Options{Quantile: 0.5, Batch: 8, ExtraAccelFuncs: extra}, 2)
		if err != nil {
			t.Fatal(err)
		}
		stack[extra] = res.Breakdown.Stack
	}
	if got, want := stack[1]-stack[0], r.Stack.PerFunction(); got != want {
		t.Errorf("one duplicate raised the stack cost by %v, want %v", got, want)
	}
}
