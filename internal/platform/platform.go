// Package platform models the compute platforms of the paper's Table 2:
// the traditional remote-storage platforms (Xeon CPU, RTX 2080 Ti GPU,
// Alveo U280 FPGA) and the near-storage platforms (quad ARM A57, Jetson TX2
// mobile GPU, SmartSSD FPGA), plus the in-storage ASIC DSA. CPU/GPU-class
// devices use roofline latency models with batch-dependent utilization;
// FPGA/ASIC platforms execute compiled programs on the cycle-level DSA
// simulator at their clock and energy points.
package platform

import (
	"fmt"
	"sync"
	"time"

	"dscs/internal/compiler"
	"dscs/internal/dsa"
	"dscs/internal/model"
	"dscs/internal/pcie"
	"dscs/internal/power"
	"dscs/internal/tensor"
	"dscs/internal/units"
)

// Class partitions the platforms into the paper's three system categories.
type Class int

// Platform classes.
const (
	// Traditional platforms sit in compute nodes behind remote storage.
	Traditional Class = iota
	// NearStorage platforms compute inside the storage node (NS-*).
	NearStorage
	// InStorageDSA is the DSCS-Serverless drive-resident accelerator.
	InStorageDSA
)

// Compute is one platform's execution model.
type Compute interface {
	// Name labels the platform as the figures do.
	Name() string
	// Infer returns the latency and compute energy of running graph g at
	// the given batch size with weights already resident.
	Infer(g *model.Graph, batch int) (time.Duration, units.Energy, error)
	// Class reports the platform's system category.
	Class() Class
	// NearStorage reports whether the platform sits inside the storage
	// node (no remote-storage data movement for its functions).
	NearStorage() bool
	// DeviceCopy returns the host-device link for discrete accelerators;
	// ok is false for platforms that read host memory directly.
	DeviceCopy() (pcie.Link, bool)
	// TDP is the platform's thermal design power.
	TDP() units.Power
	// Price is the platform's CAPEX contribution.
	Price() units.Dollars
}

// Roofline is an analytic platform model: peak throughput derated by a
// batch-dependent utilization, against a memory roofline.
type Roofline struct {
	Label string
	// PeakFLOPS is the marketed peak of the device's native precision.
	PeakFLOPS float64
	// Batch1Util and MaxUtil bound the achieved fraction of peak: small
	// batches underutilize wide devices (the paper's GPU observation).
	Batch1Util, MaxUtil float64
	MemBW               units.Bandwidth
	DType               tensor.DType
	// Launch is the per-invocation runtime overhead (framework, kernel
	// launches, driver).
	Launch time.Duration
	// CopyLink, when set, is the host-device transfer path.
	CopyLink *pcie.Link

	Power     units.Power // device TDP
	BusyFrac  float64     // fraction of TDP drawn while computing
	HostShare units.Power // host CPU share drawn while the device computes
	Cost      units.Dollars

	Kind Class
}

// Name implements Compute.
func (r Roofline) Name() string { return r.Label }

// Class implements Compute.
func (r Roofline) Class() Class { return r.Kind }

// NearStorage implements Compute.
func (r Roofline) NearStorage() bool { return r.Kind != Traditional }

// DeviceCopy implements Compute.
func (r Roofline) DeviceCopy() (pcie.Link, bool) {
	if r.CopyLink == nil {
		return pcie.Link{}, false
	}
	return *r.CopyLink, true
}

// TDP implements Compute.
func (r Roofline) TDP() units.Power { return r.Power }

// Price implements Compute.
func (r Roofline) Price() units.Dollars { return r.Cost }

// util interpolates achieved utilization between batch 1 and saturation.
func (r Roofline) util(batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	return r.MaxUtil - (r.MaxUtil-r.Batch1Util)/float64(batch)
}

// Infer implements Compute via the roofline.
func (r Roofline) Infer(g *model.Graph, batch int) (time.Duration, units.Energy, error) {
	if batch < 1 {
		return 0, 0, fmt.Errorf("platform: non-positive batch")
	}
	flops := float64(g.FLOPs()) * float64(batch)
	compute := flops / (r.PeakFLOPS * r.util(batch))
	// Weights stream once; activations (approximated as every layer's
	// output) once per batch item.
	bytes := units.Bytes(g.WeightBytes(r.DType)) +
		units.Bytes(g.ActivationElems())*r.DType.Size()*units.Bytes(batch)
	mem := r.MemBW.TransferTime(bytes).Seconds()
	sec := compute
	if mem > sec {
		sec = mem
	}
	lat := r.Launch + time.Duration(sec*float64(time.Second))
	energy := (r.Power*units.Power(r.BusyFrac) + r.HostShare).Times(lat)
	return lat, energy, nil
}

// DSAPlatform executes compiled programs on the cycle-level simulator —
// the FPGA implementations of the DSA and the in-storage ASIC.
type DSAPlatform struct {
	Label  string
	Config dsa.Config
	// Node prices the dynamic energy; DynScale derates it for FPGA fabric
	// overhead (LUT routing burns ~an order of magnitude more per op).
	Node     power.TechNode
	DynScale float64
	// Static is the fabric/board standing power while the function runs.
	Static units.Power
	// Launch is the runtime overhead per invocation (XRT/OpenCL enqueue
	// for FPGAs; the thin driver for the ASIC is modeled in csd instead).
	Launch   time.Duration
	CopyLink *pcie.Link

	Power units.Power
	Cost  units.Dollars
	Kind  Class

	mu    sync.Mutex
	cache map[runKey]*cachedRun
}

// runKey memoizes executions by (graph, batch) as a composite key:
// comparing struct fields costs nothing per call, where formatting a
// "name/batch" string allocated on every inference.
type runKey struct {
	name  string
	batch int
}

// cachedRun is one memoized execution. The once gives singleflight
// semantics: concurrent cold invocations of the same (graph, batch) key
// wait for a single compile+simulate instead of each redoing it.
type cachedRun struct {
	once   sync.Once
	lat    time.Duration
	energy units.Energy
	err    error
}

// Name implements Compute.
func (d *DSAPlatform) Name() string { return d.Label }

// Class implements Compute.
func (d *DSAPlatform) Class() Class { return d.Kind }

// NearStorage implements Compute.
func (d *DSAPlatform) NearStorage() bool { return d.Kind != Traditional }

// DeviceCopy implements Compute.
func (d *DSAPlatform) DeviceCopy() (pcie.Link, bool) {
	if d.CopyLink == nil {
		return pcie.Link{}, false
	}
	return *d.CopyLink, true
}

// TDP implements Compute.
func (d *DSAPlatform) TDP() units.Power { return d.Power }

// Price implements Compute.
func (d *DSAPlatform) Price() units.Dollars { return d.Cost }

// Infer implements Compute by compiling and simulating, with memoization
// and singleflight (compilation is deterministic for a graph/batch/config
// triple, and the compiled program itself is shared process-wide through
// the compiler's program cache). Safe for concurrent use.
//
//dscslint:hotpath
func (d *DSAPlatform) Infer(g *model.Graph, batch int) (time.Duration, units.Energy, error) {
	key := runKey{name: g.Name, batch: batch}
	d.mu.Lock()
	if d.cache == nil {
		//dscslint:allow hotpathcheck runs once per platform, on the first inference's miss branch
		d.cache = make(map[runKey]*cachedRun)
	}
	c, ok := d.cache[key]
	if !ok {
		c = &cachedRun{}
		d.cache[key] = c
	}
	d.mu.Unlock()

	c.once.Do(func() {
		prog, err := compiler.CompileCached(g, batch, d.Config, compiler.Options{})
		if err != nil {
			c.err = err
			return
		}
		sim, err := dsa.New(d.Config)
		if err != nil {
			c.err = err
			return
		}
		st, err := sim.Run(prog)
		if err != nil {
			c.err = err
			return
		}
		c.lat = st.Latency(d.Config.Freq)
		dynE, _ := sim.Energy(st, d.Node)
		c.energy = dynE*units.Energy(d.DynScale) + d.Static.Times(c.lat)
	})
	if c.err != nil {
		return 0, 0, c.err
	}
	return d.Launch + c.lat, c.energy, nil
}

var gen3x16 = pcie.Gen3x16()

// BaselineCPU returns the paper's baseline: the c5.4xlarge slice of an
// Intel Xeon Platinum 8275CL (16 vCPUs) running containerized inference.
func BaselineCPU() Compute {
	return Roofline{
		Label:      "Baseline (CPU)",
		PeakFLOPS:  200e9, // effective fp32 inference throughput of the slice
		Batch1Util: 0.85, MaxUtil: 0.95,
		MemBW:  60 * units.GBps,
		DType:  tensor.Float32,
		Launch: 2 * time.Millisecond,
		Power:  95, BusyFrac: 0.75,
		Cost: 2600,
	}
}

// GPU returns the traditional-platform NVIDIA RTX 2080 Ti.
func GPU() Compute {
	return Roofline{
		Label:      "GPU (2080 Ti)",
		PeakFLOPS:  13.45e12,
		Batch1Util: 0.055, MaxUtil: 0.60,
		MemBW:    616 * units.GBps,
		DType:    tensor.Float32,
		Launch:   1200 * time.Microsecond,
		CopyLink: &gen3x16,
		Power:    250, BusyFrac: 0.70, HostShare: 60,
		Cost: 1199 + 2600, // card + host share
	}
}

// FPGA returns the traditional-platform Alveo U280 carrying a 64x64 DSA at
// 300 MHz with HBM2 — resource- and frequency-bound relative to the ASIC.
func FPGA() Compute {
	cfg := dsa.Config{
		Name: "u280-dsa", Rows: 64, Cols: 64, VPULanes: 64,
		Freq: 300 * units.MHz, DRAM: power.HBM2, DoubleBuffered: true,
	}.WithBuffers(8 * units.MiB)
	return &DSAPlatform{
		Label:  "FPGA (U280)",
		Config: cfg,
		Node:   power.Node14nm, DynScale: 9,
		Static:   38,
		Launch:   38 * time.Millisecond, // XRT enqueue/sync + buffer migration
		CopyLink: &gen3x16,
		Power:    100, Cost: 7395 + 2600,
	}
}

// NSARM returns the conventional computational-storage microprocessor: a
// quad-core ARM Cortex-A57 inside the drive enclosure.
func NSARM() Compute {
	return Roofline{
		Label:      "NS-ARM",
		PeakFLOPS:  62e9, // quad A57 NEON peak; ~50 GFLOPS effective
		Batch1Util: 0.80, MaxUtil: 0.90,
		MemBW:  25 * units.GBps,
		DType:  tensor.Float32,
		Launch: 2 * time.Millisecond,
		Power:  7, BusyFrac: 0.85,
		Cost: 280 + 700, // SoC + drive
		Kind: NearStorage,
	}
}

// NSMobileGPU returns the near-storage Jetson TX2 (256-core Pascal).
func NSMobileGPU() Compute {
	return Roofline{
		Label:      "NS-Mobile-GPU",
		PeakFLOPS:  1.33e12, // fp16
		Batch1Util: 0.075, MaxUtil: 0.50,
		MemBW:  58 * units.GBps,
		DType:  tensor.Float16,
		Launch: 1800 * time.Microsecond,
		Power:  15, BusyFrac: 0.80,
		Cost: 399 + 700,
		Kind: NearStorage,
	}
}

// NSFPGA returns the Samsung SmartSSD: a KU15P-class FPGA in the drive,
// fitting a 32x32 DSA at 200 MHz on DDR4 within the shared 25 W budget.
func NSFPGA() Compute {
	cfg := dsa.Config{
		Name: "smartssd-dsa", Rows: 32, Cols: 32, VPULanes: 32,
		Freq: 200 * units.MHz, DRAM: power.DDR4, DoubleBuffered: true,
	}.WithBuffers(2 * units.MiB)
	return &DSAPlatform{
		Label:  "NS-FPGA (SmartSSD)",
		Config: cfg,
		Node:   power.Node14nm, DynScale: 9,
		Static: 9,
		Launch: 4 * time.Millisecond, // XRT on the storage node
		Power:  10,
		Cost:   1950,
		Kind:   NearStorage,
	}
}

// DSCS returns the in-storage ASIC DSA (the paper's design): the
// DSE-selected 128x128 array at 1 GHz/14 nm. Invocation overhead is the
// thin csd driver, modeled there rather than in Launch.
func DSCS() Compute {
	return &DSAPlatform{
		Label:    "DSCS-Serverless",
		Config:   dsa.PaperOptimal(),
		Node:     power.Node14nm,
		DynScale: 1,
		Static:   0.8, // controller share while the DSA runs
		Power:    4.2,
		Cost:     52 + 700, // ASIC die (cost model) + drive
		Kind:     InStorageDSA,
	}
}

// All returns the full Table 2 lineup in the figures' order.
func All() []Compute {
	return []Compute{
		BaselineCPU(), GPU(), FPGA(), NSARM(), NSMobileGPU(), NSFPGA(), DSCS(),
	}
}
