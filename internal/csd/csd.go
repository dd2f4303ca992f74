// Package csd implements the DSCS-Drive: a computational storage device
// that couples the SSD controller (internal/ssd) with the in-storage DSA
// (internal/dsa) through a dedicated peer-to-peer PCIe connection, fronted
// by an OpenCL-style driver. It enforces the drive's PCIe power budget and
// exposes the execution path of the paper's Section 3.1: driver-initiated
// P2P staging, DSA execution, interrupt, and P2P write-back.
package csd

import (
	"fmt"
	"sync"
	"time"

	"dscs/internal/dsa"
	"dscs/internal/isa"
	"dscs/internal/pcie"
	"dscs/internal/power"
	"dscs/internal/ssd"
	"dscs/internal/units"
)

// Config assembles a DSCS-Drive.
type Config struct {
	SSD ssd.Config
	DSA dsa.Config

	// P2P is the internal link between the flash controller and the DSA.
	P2P pcie.Link

	// Driver costs: one ioctl-class syscall to initiate a P2P transfer,
	// the OpenCL command-queue enqueue, and the completion interrupt from
	// the DSA to the host CPU.
	DriverSyscall time.Duration
	Enqueue       time.Duration
	Interrupt     time.Duration

	// Budget is the drive's total power envelope (PCIe slot: 25 W).
	Budget units.Power

	// Node is the process the DSA is built in (14 nm for the ASIC;
	// energy scales accordingly).
	Node power.TechNode
}

// Default returns the paper's deployed configuration: a SmartSSD-class
// drive with the DSE-selected 128x128 DSA at 14 nm under the 25 W budget.
func Default() Config {
	return Config{
		SSD:           ssd.SmartSSDClass(),
		DSA:           dsa.PaperOptimal(),
		P2P:           pcie.Gen3x4(),
		DriverSyscall: 3 * time.Microsecond,
		Enqueue:       900 * time.Microsecond, // OpenCL command-queue on the storage node
		Interrupt:     30 * time.Microsecond,
		Budget:        25,
		Node:          power.Node14nm,
	}
}

// Validate checks the assembly, including the power budget: the DSA's peak
// power plus the active flash subsystem must fit the PCIe envelope.
func (c Config) Validate() error {
	if err := c.SSD.Validate(); err != nil {
		return err
	}
	if err := c.DSA.Validate(); err != nil {
		return err
	}
	if err := c.P2P.Validate(); err != nil {
		return err
	}
	if c.DriverSyscall <= 0 || c.Enqueue < 0 || c.Interrupt < 0 {
		return fmt.Errorf("csd: non-positive driver costs")
	}
	if c.Budget <= 0 {
		return fmt.Errorf("csd: non-positive power budget")
	}
	peak := power.PeakPower(c.Node, c.DSA.PEs(), c.DSA.TotalBuf(), c.DSA.Freq, c.DSA.DRAM)
	if total := peak + c.SSD.ActivePower; total > c.Budget {
		return fmt.Errorf("csd: DSA peak %v + flash %v exceeds %v budget",
			peak, c.SSD.ActivePower, c.Budget)
	}
	return nil
}

// Drive is one DSCS-Drive instance. Safe for concurrent use: the embedded
// SSD serializes its own command path, and the drive-level occupancy and
// keep-warm state sit behind one lock.
type Drive struct {
	cfg Config
	ssd *ssd.Drive
	sim *dsa.Simulator

	mu   sync.Mutex
	busy bool
	// residentWeights tracks which function's weights are loaded in the
	// DSA's DRAM (the keep-warm state of Section 5.3).
	residentWeights string
}

// New builds and validates a drive.
func New(cfg Config) (*Drive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	base, err := ssd.New(cfg.SSD)
	if err != nil {
		return nil, err
	}
	sim, err := dsa.New(cfg.DSA)
	if err != nil {
		return nil, err
	}
	return &Drive{cfg: cfg, ssd: base, sim: sim}, nil
}

// Config returns the drive's configuration.
func (d *Drive) Config() Config { return d.cfg }

// SSD exposes the conventional storage personality: a DSCS-Drive still
// serves standard reads and writes (Section 5.2, storage utilization).
func (d *Drive) SSD() *ssd.Drive { return d.ssd }

// Busy reports whether a function currently occupies the DSA
// (run-to-completion, no preemption — Section 5.3).
func (d *Drive) Busy() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.busy
}

// Acquire marks the DSA busy; it reports false if already occupied.
func (d *Drive) Acquire() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.busy {
		return false
	}
	d.busy = true
	return true
}

// Release frees the DSA.
func (d *Drive) Release() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.busy = false
}

// ExecResult breaks down one in-storage function execution.
type ExecResult struct {
	Driver   time.Duration // syscalls + enqueue + interrupt
	P2PRead  time.Duration // flash -> DSA DRAM staging
	Compute  time.Duration // DSA execution (includes its DRAM traffic)
	P2PWrite time.Duration // results DSA DRAM -> flash

	Energy units.Energy
	Stats  dsa.Stats
}

// Total is the end-to-end device latency.
func (r ExecResult) Total() time.Duration {
	return r.Driver + r.P2PRead + r.Compute + r.P2PWrite
}

// LoadWeights stages a function's weights (or container image contents)
// from flash into DSA DRAM over the P2P path, returning the latency and
// energy. This is the cold-start path; see faas for the keep-warm policy.
func (d *Drive) LoadWeights(fn string, bytes units.Bytes, offset int64) (time.Duration, units.Energy) {
	readLat, readEnergy := d.ssd.InternalRead(offset, bytes)
	dma := pcie.DMAEngine{Link: d.cfg.P2P}
	xferLat, xferEnergy := dma.Transfer(bytes)
	d.mu.Lock()
	d.residentWeights = fn
	d.mu.Unlock()
	return d.cfg.DriverSyscall + readLat + xferLat, readEnergy + xferEnergy
}

// EvictWeights offloads the resident function image to flash over P2P
// (Section 5.3 cold-start mitigation) and returns the cost.
func (d *Drive) EvictWeights(bytes units.Bytes, offset int64) (time.Duration, units.Energy) {
	dma := pcie.DMAEngine{Link: d.cfg.P2P}
	xferLat, xferEnergy := dma.Transfer(bytes)
	writeLat, writeEnergy := d.ssd.InternalWrite(offset, bytes)
	d.mu.Lock()
	d.residentWeights = ""
	d.mu.Unlock()
	return xferLat + writeLat, xferEnergy + writeEnergy
}

// RunStaged executes the drive-side path around an already-evaluated
// computation: driver initiation, P2P staging of the input, the provided
// compute latency/energy, interrupt, and P2P write-back of the results.
// The higher-level runtime uses this with platform-evaluated compute.
func (d *Drive) RunStaged(compute time.Duration, computeEnergy units.Energy,
	inputOffset int64, inputBytes, outputBytes units.Bytes) ExecResult {
	var r ExecResult

	// 1. Driver initiates the P2P transfer: one syscall, bypassing the
	// host's storage software stack, plus the OpenCL enqueue.
	r.Driver = d.cfg.DriverSyscall + d.cfg.Enqueue

	// 2. P2P staging: flash internal read + P2P DMA into DSA DRAM.
	readLat, readEnergy := d.ssd.InternalRead(inputOffset, inputBytes)
	dma := pcie.DMAEngine{Link: d.cfg.P2P}
	inXfer, inXferEnergy := dma.Transfer(inputBytes)
	r.P2PRead = readLat + inXfer

	// 3. The computation itself.
	r.Compute = compute

	// 4. Completion interrupt, then P2P write-back of the results.
	r.Driver += d.cfg.Interrupt
	outXfer, outXferEnergy := dma.Transfer(outputBytes)
	writeLat, writeEnergy := d.ssd.InternalWrite(inputOffset, outputBytes)
	r.P2PWrite = outXfer + writeLat

	r.Energy = readEnergy + inXferEnergy + computeEnergy + outXferEnergy + writeEnergy
	return r
}

// Run executes a compiled program against data resident on this drive.
// inputBytes are staged flash->DSA over P2P; outputBytes are written back
// the same way after the completion interrupt.
func (d *Drive) Run(p *isa.Program, inputOffset int64, inputBytes, outputBytes units.Bytes) (ExecResult, error) {
	st, err := d.sim.Run(p)
	if err != nil {
		return ExecResult{}, err
	}
	dsaEnergy, _ := d.sim.Energy(st, d.cfg.Node)
	r := d.RunStaged(st.Latency(d.cfg.DSA.Freq), dsaEnergy, inputOffset, inputBytes, outputBytes)
	r.Stats = st
	return r, nil
}

// RunHostMediated is the ablation path: data detours through the host
// (flash -> host DRAM -> DSA) instead of the dedicated P2P connection,
// paying the host link twice plus kernel I/O overheads.
func (d *Drive) RunHostMediated(p *isa.Program, inputOffset int64, inputBytes, outputBytes units.Bytes) (ExecResult, error) {
	var r ExecResult
	const hostSyscalls = 4 // read, write to device, completion, writeback
	r.Driver = time.Duration(hostSyscalls)*d.cfg.DriverSyscall + d.cfg.Enqueue + d.cfg.Interrupt

	readLat, readEnergy := d.ssd.HostRead(inputOffset, inputBytes)
	toDev := d.cfg.SSD.HostLink.TransferTime(inputBytes)
	r.P2PRead = readLat + toDev

	st, err := d.sim.Run(p)
	if err != nil {
		return ExecResult{}, err
	}
	r.Stats = st
	r.Compute = st.Latency(d.cfg.DSA.Freq)
	dsaEnergy, _ := d.sim.Energy(st, d.cfg.Node)

	fromDev := d.cfg.SSD.HostLink.TransferTime(outputBytes)
	writeLat, writeEnergy := d.ssd.HostWrite(inputOffset, outputBytes)
	r.P2PWrite = fromDev + writeLat

	r.Energy = readEnergy + dsaEnergy + writeEnergy +
		2*d.cfg.SSD.HostLink.TransferEnergy(inputBytes+outputBytes)
	return r, nil
}

// ArbitrationPenalty is the fractional slowdown conventional host IO sees
// while the DSA's P2P traffic shares the drive's internal channels. The
// PCIe switch arbitrates between the two clients (Section 5.2), so normal
// storage service continues with only a bounded penalty.
const ArbitrationPenalty = 0.12

// HostReadConcurrent serves a conventional host read while the DSA may be
// active: when the drive is busy, the flash channels and switch are shared
// and the read pays the arbitration penalty — storage functionality is
// preserved (Section 5.2's storage-utilization argument), just derated.
func (d *Drive) HostReadConcurrent(offset int64, n units.Bytes) (time.Duration, units.Energy) {
	lat, energy := d.ssd.HostRead(offset, n)
	if d.Busy() {
		lat = lat + time.Duration(float64(lat)*ArbitrationPenalty)
	}
	return lat, energy
}

// HostWriteConcurrent is the write-side analogue.
func (d *Drive) HostWriteConcurrent(offset int64, n units.Bytes) (time.Duration, units.Energy) {
	lat, energy := d.ssd.HostWrite(offset, n)
	if d.Busy() {
		lat = lat + time.Duration(float64(lat)*ArbitrationPenalty)
	}
	return lat, energy
}
