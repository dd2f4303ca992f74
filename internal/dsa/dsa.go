// Package dsa implements the cycle-level simulator of the in-storage
// domain-specific accelerator: a weight-stationary systolic Matrix
// Processing Unit (MPU) coupled to a SIMD Vector Processing Unit (VPU)
// through a shared multi-bank output buffer, with a DMA engine that double
// buffers tile transfers against compute.
//
// The simulator executes compiled loop descriptors (internal/isa) and
// reports cycles, utilization, and the activity counters the power model
// (internal/power) converts to energy. The same simulator, configured at a
// lower clock, models the FPGA implementations of the DSA.
package dsa

import (
	"fmt"
	"time"

	"dscs/internal/isa"
	"dscs/internal/power"
	"dscs/internal/units"
)

// Config describes one DSA design point.
type Config struct {
	Name string

	// Rows x Cols systolic array of 8-bit PEs.
	Rows, Cols int

	// On-chip buffer capacities. The weight buffer feeds the array; the
	// input buffer streams activations; the output buffer holds 32-bit
	// accumulators and is shared with the VPU.
	InputBuf, WeightBuf, OutputBuf units.Bytes

	// VPULanes is the SIMD width of the vector unit.
	VPULanes int

	Freq units.Frequency
	DRAM power.DRAMKind

	// DoubleBuffered overlaps tile DMA with compute (the default design);
	// disabling it is the ablation knob.
	DoubleBuffered bool
}

// TotalBuf returns the combined on-chip buffer capacity.
func (c Config) TotalBuf() units.Bytes { return c.InputBuf + c.WeightBuf + c.OutputBuf }

// PEs returns the PE count.
func (c Config) PEs() int { return c.Rows * c.Cols }

// String summarizes the design point the way the paper labels them
// (e.g. "Dim128-4MB-DDR5").
func (c Config) String() string {
	return fmt.Sprintf("Dim%d-%v-%v", c.Rows, c.TotalBuf(), c.DRAM)
}

// Validate rejects degenerate configurations.
func (c Config) Validate() error {
	if c.Rows <= 0 || c.Cols <= 0 {
		return fmt.Errorf("dsa: non-positive array dims %dx%d", c.Rows, c.Cols)
	}
	if c.InputBuf <= 0 || c.WeightBuf <= 0 || c.OutputBuf <= 0 {
		return fmt.Errorf("dsa: non-positive buffer sizes")
	}
	if c.VPULanes <= 0 {
		return fmt.Errorf("dsa: non-positive VPU lanes")
	}
	if c.Freq <= 0 {
		return fmt.Errorf("dsa: non-positive frequency")
	}
	if c.DRAM.Bandwidth() <= 0 {
		return fmt.Errorf("dsa: unknown DRAM kind")
	}
	return nil
}

// WithBuffers splits a total buffer budget into the default 2:1:1
// weight:input:output partition.
func (c Config) WithBuffers(total units.Bytes) Config {
	c.WeightBuf = total / 2
	c.InputBuf = total / 4
	c.OutputBuf = total - c.WeightBuf - c.InputBuf
	return c
}

// PaperOptimal is the configuration the paper's design-space exploration
// selects: a 128x128 systolic array, 4 MB of on-chip scratchpad, DDR5
// memory, at 1 GHz.
func PaperOptimal() Config {
	c := Config{
		Name: "dscs-dsa",
		Rows: 128, Cols: 128,
		VPULanes:       128,
		Freq:           units.GHz,
		DRAM:           power.DDR5,
		DoubleBuffered: true,
	}
	return c.WithBuffers(4 * units.MiB)
}

// Stats aggregates an execution.
type Stats struct {
	Cycles        uint64
	ComputeCycles uint64 // MPU busy cycles
	VectorCycles  uint64 // VPU busy cycles
	MemCycles     uint64 // DMA busy cycles
	MACs          int64
	VectorOps     int64
	DRAMBytes     units.Bytes
	SRAMBytes     units.Bytes

	// PerLayer records per-instruction latency for breakdown analysis.
	PerLayer []LayerStat
}

// LayerStat is the per-instruction slice of an execution.
type LayerStat struct {
	Layer  string
	Op     isa.Opcode
	Cycles uint64
}

// Latency converts the cycle count to wall time at the configured clock.
func (s Stats) Latency(f units.Frequency) time.Duration {
	return units.CyclesToDuration(s.Cycles, f)
}

// Utilization is the fraction of peak MAC throughput achieved.
func (s Stats) Utilization(c Config) float64 {
	if s.Cycles == 0 {
		return 0
	}
	peak := float64(s.Cycles) * float64(c.PEs())
	return float64(s.MACs) / peak
}

// Simulator executes programs on one design point.
type Simulator struct {
	cfg          Config
	bytesPerCyc  float64
	keepPerLayer bool
}

// New returns a simulator for the design point.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{
		cfg:         cfg,
		bytesPerCyc: float64(cfg.DRAM.Bandwidth()) / float64(cfg.Freq),
	}, nil
}

// KeepPerLayer enables per-instruction stats collection.
func (s *Simulator) KeepPerLayer(on bool) { s.keepPerLayer = on }

// memCycles converts a DRAM byte count to DMA cycles.
func (s *Simulator) memCycles(b units.Bytes) uint64 {
	if b <= 0 {
		return 0
	}
	return uint64(float64(b)/s.bytesPerCyc) + 1
}

// Run executes a program and returns its statistics.
func (s *Simulator) Run(p *isa.Program) (Stats, error) {
	if err := p.Validate(); err != nil {
		return Stats{}, err
	}
	var st Stats
	for i := range p.Instrs {
		in := &p.Instrs[i]
		var cycles uint64
		switch in.Op {
		case isa.OpGEMMLoop:
			cycles = s.runGEMM(in, &st)
		case isa.OpVectorLoop:
			cycles = s.runVector(in, &st)
		case isa.OpLoad, isa.OpStore:
			cycles = s.memCycles(in.Bytes)
			st.MemCycles += cycles
			st.DRAMBytes += in.Bytes
		case isa.OpSync:
			cycles = 1
		}
		st.Cycles += cycles
		if s.keepPerLayer {
			st.PerLayer = append(st.PerLayer, LayerStat{Layer: in.Layer, Op: in.Op, Cycles: cycles})
		}
	}
	return st, nil
}

// runGEMM models a tiled GEMM loop. Per-tile compute follows the systolic
// pipeline (fill the array with the K-dim, stream M rows, drain N columns);
// with double buffering the loop runs at max(compute, DMA) plus the pipeline
// edges, otherwise compute and DMA serialize.
func (s *Simulator) runGEMM(in *isa.Instr, st *Stats) uint64 {
	nM, nK, nN := in.Tiles()
	if nM == 0 {
		return 0
	}
	// Sum over the tile grid of (tileM + tileK + tileN), accounting for
	// remainder tiles exactly: sums of tile extents along each dim equal
	// the full dims.
	perCount := uint64(nK)*uint64(nN)*uint64(in.M) +
		uint64(nM)*uint64(nN)*uint64(in.K) +
		uint64(nM)*uint64(nK)*uint64(in.N)
	compute := perCount * uint64(in.Count)

	dramBytes := in.WeightBytes + in.InputBytes + in.OutputBytes
	mem := s.memCycles(dramBytes)

	var total uint64
	if s.cfg.DoubleBuffered {
		total = maxU64(compute, mem)
		// Pipeline edges: the first tile's fill DMA and the last tile's
		// drain are not overlapped.
		firstTile := units.Bytes(in.TileK*in.TileN + in.TileM*in.TileK)
		total += s.memCycles(firstTile)
		total += uint64(in.TileM + in.TileK + in.TileN)
	} else {
		total = compute + mem
	}

	// Fused epilogue activations ride the output stream: they add VPU
	// energy but no extra cycles (the output path applies them in flight).
	outElems := int64(in.M) * int64(in.N) * int64(in.Count)
	if in.FusedVec != isa.VecNone {
		st.VectorOps += outElems * int64(in.FusedVec.VectorCost())
	}

	st.ComputeCycles += compute
	st.MemCycles += mem
	st.MACs += in.MACs()
	st.DRAMBytes += dramBytes
	// SRAM traffic: DMA fills plus operand streaming. Each activation byte
	// is read once per (k,n) tile pass and broadcast across a PE row; each
	// weight byte is read once per resident pass; outputs accumulate in the
	// output buffer across the K loop.
	st.SRAMBytes += dramBytes +
		units.Bytes(in.MACs()/int64(minInt(s.cfg.Rows, s.cfg.Cols))) +
		units.Bytes(outElems*4)
	return total
}

// runVector models a SIMD loop: elems spread over the lanes at the op's
// per-element cost, with DMA for operands unless the chain is on-chip.
func (s *Simulator) runVector(in *isa.Instr, st *Stats) uint64 {
	ops := in.Elems * int64(in.Vec.VectorCost())
	compute := uint64(ops/int64(s.cfg.VPULanes)) + 1
	var mem uint64
	dram := in.DRAMBytes()
	if dram > 0 {
		mem = s.memCycles(dram)
	}
	var total uint64
	if s.cfg.DoubleBuffered {
		total = maxU64(compute, mem)
	} else {
		total = compute + mem
	}
	st.VectorCycles += compute
	st.MemCycles += mem
	st.VectorOps += ops
	st.DRAMBytes += dram
	st.SRAMBytes += units.Bytes(2 * in.Elems)
	return total
}

// Activity converts execution stats to the power model's activity record.
func (s *Simulator) Activity(st Stats) power.Activity {
	return power.Activity{
		MACs:        st.MACs,
		VectorOps:   st.VectorOps,
		SRAMBytes:   st.SRAMBytes,
		DRAMBytes:   st.DRAMBytes,
		BufferBytes: s.cfg.TotalBuf(),
		Runtime:     st.Latency(s.cfg.Freq),
		DRAM:        s.cfg.DRAM,
		Area:        power.DieArea(power.Node45nm, s.cfg.PEs(), s.cfg.TotalBuf()),
	}
}

// Energy estimates the execution's energy and average power on node t, with
// the die area evaluated on the same node.
func (s *Simulator) Energy(st Stats, t power.TechNode) (units.Energy, units.Power) {
	a := s.Activity(st)
	a.Area = power.DieArea(t, s.cfg.PEs(), s.cfg.TotalBuf())
	return power.Estimate(t, a)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
