package csd

import (
	"testing"
	"time"

	"dscs/internal/compiler"
	"dscs/internal/model"
	"dscs/internal/power"
	"dscs/internal/units"
)

func newDrive(t *testing.T) *Drive {
	t.Helper()
	d, err := New(Default())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDefaultFitsPowerBudget(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config must fit the 25W budget: %v", err)
	}
}

func TestBudgetRejectsOversizedDSA(t *testing.T) {
	cfg := Default()
	cfg.DSA.Rows, cfg.DSA.Cols = 1024, 1024
	cfg.DSA = cfg.DSA.WithBuffers(32 * units.MiB)
	if err := cfg.Validate(); err == nil {
		t.Error("a 1024x1024 DSA must blow the 25W drive budget")
	}
	// At 45 nm even the 128x128 design fails (the paper's node argument).
	cfg45 := Default()
	cfg45.Node = cfg45.Node.Scaled("45nm-undo", ScaleUndo())
	if err := cfg45.Validate(); err == nil {
		t.Error("45nm 128x128 DSA should exceed the shared budget")
	}
}

func TestRunBreakdown(t *testing.T) {
	d := newDrive(t)
	g := model.ResNet50()
	p, err := compiler.Compile(g, 1, d.Config().DSA, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := units.Bytes(224 * 224 * 3)
	d.SSD().HostWrite(0, in) // data arrives on the drive first
	r, err := d.Run(p, 0, in, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Driver <= 0 || r.P2PRead <= 0 || r.Compute <= 0 || r.P2PWrite <= 0 {
		t.Fatalf("incomplete breakdown: %+v", r)
	}
	if r.Total() != r.Driver+r.P2PRead+r.Compute+r.P2PWrite {
		t.Error("total must equal the sum of phases")
	}
	if r.Energy <= 0 {
		t.Error("energy must be positive")
	}
	// For ResNet-50 batch 1, compute dominates the on-drive path.
	if r.Compute < r.P2PRead {
		t.Errorf("compute %v should dominate staging %v here", r.Compute, r.P2PRead)
	}
	// The whole on-drive execution sits in the milliseconds.
	if r.Total() > 20*time.Millisecond {
		t.Errorf("on-drive execution = %v, implausibly slow", r.Total())
	}
}

func TestP2PBeatsHostMediated(t *testing.T) {
	d := newDrive(t)
	g := model.SSDMobileNetPPE()
	p, err := compiler.Compile(g, 1, d.Config().DSA, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := units.Bytes(6 * units.MB) // the PPE benchmark's high-res frame
	d.SSD().HostWrite(0, in)
	p2p, err := d.Run(p, 0, in, 100*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	host, err := d.RunHostMediated(p, 0, in, 100*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if p2p.Total() >= host.Total() {
		t.Errorf("P2P %v must beat host-mediated %v", p2p.Total(), host.Total())
	}
}

func TestAcquireRelease(t *testing.T) {
	d := newDrive(t)
	if d.Busy() {
		t.Fatal("fresh drive must be idle")
	}
	if !d.Acquire() {
		t.Fatal("first acquire must succeed")
	}
	if d.Acquire() {
		t.Fatal("second acquire must fail (run-to-completion)")
	}
	d.Release()
	if !d.Acquire() {
		t.Fatal("acquire after release must succeed")
	}
}

func TestWeightResidency(t *testing.T) {
	d := newDrive(t)
	weights := units.Bytes(25 * units.MB)
	d.SSD().HostWrite(1<<30, weights)
	lat, energy := d.LoadWeights(weights, 1<<30)
	if lat <= 0 || energy <= 0 {
		t.Fatalf("load weights lat=%v energy=%v", lat, energy)
	}
	// 25 MB over internal flash + P2P: few tens of ms at worst.
	if lat > 40*time.Millisecond {
		t.Errorf("weight load = %v, implausibly slow", lat)
	}
	eLat, eEnergy := d.EvictWeights(weights, 1<<30)
	if eLat <= 0 || eEnergy <= 0 {
		t.Fatal("evict must cost something")
	}
}

func TestValidateCatchesDriverMisconfig(t *testing.T) {
	cfg := Default()
	cfg.DriverSyscall = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero driver syscall should fail")
	}
	cfg2 := Default()
	cfg2.Budget = 0
	if err := cfg2.Validate(); err == nil {
		t.Error("zero budget should fail")
	}
}

// ScaleUndo inverts the 45->14 scaling for the budget test.
func ScaleUndo() power.ScaleFactors {
	return power.ScaleFactors{Power: 1 / 0.21, Area: 1 / 0.11}
}

func TestStorageServiceDuringDSAActivity(t *testing.T) {
	// Section 5.2: the accelerator is an optional extra capability; normal
	// storage operation continues while the DSA runs, with only a bounded
	// arbitration penalty.
	d := newDrive(t)
	d.SSD().HostWrite(0, 8*units.MB)
	idleLat, _ := d.HostReadConcurrent(0, 8*units.MB)

	if !d.Acquire() {
		t.Fatal("acquire failed")
	}
	busyLat, _ := d.HostReadConcurrent(0, 8*units.MB)
	d.Release()

	if busyLat <= idleLat {
		t.Error("sharing the channels must cost something")
	}
	ratio := float64(busyLat) / float64(idleLat)
	if ratio > 1.25 {
		t.Errorf("interference ratio = %.2f, want bounded (<1.25)", ratio)
	}
	// Writes too.
	idleW, _ := d.HostWriteConcurrent(1<<28, 4*units.MB)
	d.Acquire()
	busyW, _ := d.HostWriteConcurrent(1<<28, 4*units.MB)
	d.Release()
	if busyW <= idleW || float64(busyW)/float64(idleW) > 1.25 {
		t.Errorf("write interference out of bounds: %v vs %v", idleW, busyW)
	}
}
