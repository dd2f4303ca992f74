// Package ssd models the SSD controller: the NVMe host command path, ECC,
// the DRAM staging buffer, and the composition of flash-array timing with
// the host PCIe link. The DSCS-Drive (internal/csd) embeds this controller
// and adds the accelerator and P2P path.
package ssd

import (
	"fmt"
	"sync"
	"time"

	"dscs/internal/flash"
	"dscs/internal/pcie"
	"dscs/internal/units"
)

// Config parameterizes the controller.
type Config struct {
	Geometry flash.Geometry
	HostLink pcie.Link

	// NVMeSubmission is the command path cost (doorbell, fetch, parse).
	NVMeSubmission time.Duration
	// ECCPerPage is the decode/encode cost per flash page.
	ECCPerPage time.Duration
	// StagingDRAMBW is the controller DRAM buffer bandwidth.
	StagingDRAMBW units.Bandwidth

	// IdlePower and ActivePower bound the drive's electrical envelope
	// (flash + controller, excluding any accelerator).
	IdlePower   units.Power
	ActivePower units.Power
}

// SmartSSDClass returns a controller in the Samsung SmartSSD's class:
// PCIe Gen3 x4 host link, 25 W drive TDP shared with the accelerator.
func SmartSSDClass() Config {
	return Config{
		Geometry:       flash.SmartSSDClass(),
		HostLink:       pcie.Gen3x4(),
		NVMeSubmission: 5 * time.Microsecond,
		ECCPerPage:     2 * time.Microsecond,
		StagingDRAMBW:  12 * units.GBps,
		IdlePower:      2.0,
		ActivePower:    9.0,
	}
}

// Validate rejects incomplete configs.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.HostLink.Validate(); err != nil {
		return err
	}
	if c.NVMeSubmission <= 0 || c.ECCPerPage < 0 || c.StagingDRAMBW <= 0 {
		return fmt.Errorf("ssd: non-positive controller timing")
	}
	if c.ActivePower <= 0 || c.IdlePower < 0 || c.IdlePower > c.ActivePower {
		return fmt.Errorf("ssd: inconsistent power envelope")
	}
	return nil
}

// Drive is one SSD instance. It is safe for concurrent use: one lock
// serializes command processing, as a real controller does per queue pair.
// The flash array is not concurrency-safe and is never handed out: the
// four read/write methods below, which hold mu, are the only way to it
// (the CSD's P2P path goes through InternalRead/InternalWrite).
type Drive struct {
	cfg Config
	// array is touched only with mu held.
	array *flash.Array

	mu                  sync.Mutex
	reads, writes       int64
	bytesRead, bytesOut units.Bytes
}

// New returns a drive with an empty flash array.
func New(cfg Config) (*Drive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	arr, err := flash.NewArray(cfg.Geometry)
	if err != nil {
		return nil, err
	}
	return &Drive{cfg: cfg, array: arr}, nil
}

// Config returns the drive configuration.
func (d *Drive) Config() Config { return d.cfg }

// pages returns the page count spanning n bytes.
func (d *Drive) pages(n units.Bytes) int64 {
	ps := d.cfg.Geometry.PageSize
	if n <= 0 {
		return 0
	}
	return int64((n + ps - 1) / ps)
}

// ecc returns the ECC pipeline cost for n bytes. The decoder is pipelined
// with the channel transfer, so only a per-command fixed depth plus a
// throughput bound shows up.
func (d *Drive) ecc(n units.Bytes) time.Duration {
	pages := d.pages(n)
	if pages == 0 {
		return 0
	}
	// Pipeline depth: one page's decode; the rest overlaps.
	return d.cfg.ECCPerPage + time.Duration(pages/8)*d.cfg.ECCPerPage
}

// HostRead returns the end-to-end latency and device energy of a host NVMe
// read of n bytes at a logical offset: command path + flash + ECC + staging
// + host PCIe transfer.
func (d *Drive) HostRead(offset int64, n units.Bytes) (time.Duration, units.Energy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	flashLat, flashEnergy := d.array.ReadBytes(offset, n)
	lat := d.cfg.NVMeSubmission + flashLat + d.ecc(n) +
		d.cfg.StagingDRAMBW.TransferTime(n) + d.cfg.HostLink.TransferTime(n)
	energy := flashEnergy + d.cfg.HostLink.TransferEnergy(n) +
		d.cfg.ActivePower.Times(lat)
	d.reads++
	d.bytesRead += n
	return lat, energy
}

// HostWrite returns the latency and energy of a host NVMe write. Writes
// acknowledge once staged in controller DRAM; flash programming continues
// in the background, so only a fraction of tPROG shows on the host path
// unless the device is saturated — we charge the staging path plus one
// program wave for durability, matching datacenter fsync'd writes.
func (d *Drive) HostWrite(offset int64, n units.Bytes) (time.Duration, units.Energy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	progLat, progEnergy := d.array.WriteBytes(offset, n)
	lat := d.cfg.NVMeSubmission + d.cfg.HostLink.TransferTime(n) +
		d.cfg.StagingDRAMBW.TransferTime(n) + d.ecc(n) + progLat
	energy := progEnergy + d.cfg.HostLink.TransferEnergy(n) +
		d.cfg.ActivePower.Times(lat)
	d.writes++
	d.bytesOut += n
	return lat, energy
}

// InternalRead is the device-side read (no host link): flash + ECC +
// staging into drive DRAM. The CSD's P2P path is built on this.
func (d *Drive) InternalRead(offset int64, n units.Bytes) (time.Duration, units.Energy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	flashLat, flashEnergy := d.array.ReadBytes(offset, n)
	lat := flashLat + d.ecc(n) + d.cfg.StagingDRAMBW.TransferTime(n)
	d.reads++
	d.bytesRead += n
	return lat, flashEnergy + d.cfg.ActivePower.Times(lat)
}

// InternalWrite is the device-side write used by the P2P result path.
func (d *Drive) InternalWrite(offset int64, n units.Bytes) (time.Duration, units.Energy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	progLat, progEnergy := d.array.WriteBytes(offset, n)
	lat := d.cfg.StagingDRAMBW.TransferTime(n) + d.ecc(n) + progLat
	d.writes++
	d.bytesOut += n
	return lat, progEnergy + d.cfg.ActivePower.Times(lat)
}

// FlashExtents reports the size of the flash array's logical-to-physical
// table, in extents (flash.Array.Extents).
func (d *Drive) FlashExtents() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.array.Extents()
}

// Counters reports operation counts and byte totals.
func (d *Drive) Counters() (reads, writes int64, bytesRead, bytesWritten units.Bytes) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes, d.bytesRead, d.bytesOut
}
