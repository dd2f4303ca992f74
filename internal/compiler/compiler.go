// Package compiler lowers model graphs (internal/model) to DSA programs
// (internal/isa) for a specific design point (internal/dsa.Config). It
// mirrors the paper's compilation stack: operator fusion to minimize
// off-chip movement, design-specific padding and tiling to maximize array
// utilization, and dataflow (loop-order) selection to minimize DRAM traffic.
package compiler

import (
	"fmt"

	"dscs/internal/dsa"
	"dscs/internal/isa"
	"dscs/internal/model"
	"dscs/internal/units"
)

// Options tune the compiler; zero value enables every optimization.
type Options struct {
	// DisableFusion keeps every activation/eltwise op as a separate DRAM
	// round-trip (the ablation baseline).
	DisableFusion bool
}

// Compile lowers graph g at the given batch size onto design point cfg.
func Compile(g *model.Graph, batch int, cfg dsa.Config, opts Options) (*isa.Program, error) {
	prog := new(isa.Program)
	if err := CompileInto(prog, g, batch, cfg, opts); err != nil {
		return nil, err
	}
	return prog, nil
}

// CompileInto is Compile lowering into dst, reusing dst.Instrs' storage:
// a caller that compiles many programs and keeps none (the design-space
// sweep) allocates one instruction buffer instead of one per program. dst
// is overwritten whole; on error its contents are unspecified.
func CompileInto(dst *isa.Program, g *model.Graph, batch int, cfg dsa.Config, opts Options) error {
	if batch <= 0 {
		return fmt.Errorf("compiler: non-positive batch %d", batch)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := g.Validate(); err != nil {
		return err
	}
	*dst = isa.Program{Name: g.Name, Batch: batch, Instrs: dst.Instrs[:0]}
	c := compilation{g: g, batch: batch, cfg: cfg, opts: opts, prog: dst}
	return c.run()
}

type compilation struct {
	g     *model.Graph
	batch int
	cfg   dsa.Config
	opts  Options

	prog *isa.Program
	// lastOutBytes is the previous layer's output size, used to decide
	// whether a following vector op can stay on-chip.
	lastOutBytes units.Bytes
}

func (c *compilation) run() error {
	// Stage the function input once from drive DRAM.
	inBytes := units.Bytes(c.g.InputShape.Elems()) * units.Bytes(c.batch)
	c.emit(isa.Instr{Op: isa.OpLoad, Layer: "input", Bytes: inBytes})

	for _, l := range c.g.Layers {
		switch {
		case l.Kind == model.DepthwiseConv2D:
			// Per-channel kernels fill a single systolic column; mapping
			// them to the VPU keeps the array for dense GEMMs.
			c.lowerDepthwise(l)
		case l.IsGEMM():
			c.lowerGEMM(l)
		default:
			c.lowerVector(l)
		}
	}

	// Store the final activation back to drive DRAM.
	last := c.g.Layers[len(c.g.Layers)-1]
	outBytes := units.Bytes(last.OutputElems()) * units.Bytes(c.batch)
	c.emit(isa.Instr{Op: isa.OpStore, Layer: "output", Bytes: outBytes})

	return c.prog.Validate()
}

func (c *compilation) emit(in isa.Instr) {
	c.prog.Instrs = append(c.prog.Instrs, in)
}

// lowerGEMM tiles one GEMM-kind layer and selects its dataflow.
func (c *compilation) lowerGEMM(l *model.Layer) {
	m, k, n, count, _ := l.GEMMDims()

	// Batch handling: layers with weights stack the batch into M so the
	// resident weights are reused across the whole batch; activation-by-
	// activation products (attention) replicate per batch item instead.
	hasWeights := l.WeightElems() > 0
	if hasWeights {
		m *= c.batch
	} else {
		count *= c.batch
	}

	tileM, tileK, tileN := c.chooseTiles(m, k, n)
	nM := ceilDiv(m, tileM)
	nN := ceilDiv(n, tileN)

	// Dataflow selection: weight-stationary re-reads the input panel once
	// per N tile; input-stationary re-reads weights once per M tile. Pick
	// whichever moves fewer DRAM bytes. Operands resident entirely in
	// their buffer are only read once either way.
	weightBytes := units.Bytes(k) * units.Bytes(n) * units.Bytes(count)
	inputBytes := units.Bytes(m) * units.Bytes(k) * units.Bytes(count)
	outputBytes := units.Bytes(m) * units.Bytes(n) * units.Bytes(count)

	wsInput := inputBytes * units.Bytes(nN) // re-read per n tile
	isWeights := weightBytes * units.Bytes(nM)
	if weightBytes <= c.cfg.WeightBuf/2 {
		// All weights resident: no re-reads under either order.
		isWeights = weightBytes
	}
	if inputBytes <= c.cfg.InputBuf/2 {
		wsInput = inputBytes
	}

	order := isa.WeightStationary
	inDRAM, wDRAM := wsInput, weightBytes
	if inputBytes+isWeights < wsInput+weightBytes {
		order = isa.InputStationary
		inDRAM, wDRAM = inputBytes, isWeights
	}

	fused := isa.VecNone
	if !c.opts.DisableFusion {
		fused = actToVec(l.FusedAct)
	}

	c.emit(isa.Instr{
		Op:    isa.OpGEMMLoop,
		Layer: l.Name,
		M:     m, K: k, N: n, Count: count,
		TileM: tileM, TileK: tileK, TileN: tileN,
		Order:       order,
		WeightBytes: wDRAM,
		InputBytes:  inDRAM,
		OutputBytes: outputBytes,
		FusedVec:    fused,
	})
	c.lastOutBytes = outputBytes

	if c.opts.DisableFusion && l.FusedAct != model.NoAct {
		// Unfused activation: a separate VPU pass over the outputs.
		c.emitVector(l.Name+"_act", actToVec(l.FusedAct),
			l.OutputElems()*int64(c.batch), false)
	}
}

// lowerDepthwise maps a depthwise convolution onto the VPU: one lane-op per
// multiply-accumulate, with the channel dimension spread across lanes.
func (c *compilation) lowerDepthwise(l *model.Layer) {
	macs := int64(l.OutH) * int64(l.OutW) * int64(l.InC) *
		int64(l.KH) * int64(l.KW) * int64(c.batch)
	outBytes := units.Bytes(l.OutputElems()) * units.Bytes(c.batch)
	onChip := false
	if !c.opts.DisableFusion {
		inBytes := units.Bytes(l.InputElems()) * units.Bytes(c.batch)
		onChip = c.lastOutBytes > 0 && inBytes <= c.cfg.OutputBuf &&
			c.lastOutBytes <= c.cfg.OutputBuf
	}
	c.emitVector(l.Name, isa.VecDWConv, macs, onChip)
	c.lastOutBytes = outBytes
	if l.FusedAct != model.NoAct && c.opts.DisableFusion {
		c.emitVector(l.Name+"_act", actToVec(l.FusedAct),
			l.OutputElems()*int64(c.batch), false)
	}
}

// lowerVector emits a VPU loop, keeping it on-chip when the producing
// tensor fits in the shared output buffer (the MPU-VPU coupling the paper's
// Figure 6 shows).
func (c *compilation) lowerVector(l *model.Layer) {
	elems := l.Elems * int64(c.batch)
	if elems <= 0 {
		elems = l.OutputElems() * int64(c.batch)
	}
	if elems <= 0 {
		return
	}
	onChip := false
	if !c.opts.DisableFusion {
		operand := units.Bytes(elems)
		onChip = c.lastOutBytes > 0 && operand <= c.cfg.OutputBuf &&
			c.lastOutBytes <= c.cfg.OutputBuf
	}
	c.emitVector(l.Name, layerToVec(l), elems, onChip)
	c.lastOutBytes = units.Bytes(elems)
}

func (c *compilation) emitVector(name string, kind isa.VectorKind, elems int64, onChip bool) {
	c.emit(isa.Instr{
		Op:     isa.OpVectorLoop,
		Layer:  name,
		Vec:    kind,
		Elems:  elems,
		OnChip: onChip,
	})
}

// chooseTiles picks tile extents: the array bounds the K and N tiles; the
// M tile grows until the input or output buffer half fills (double
// buffering halves the usable capacity).
func (c *compilation) chooseTiles(m, k, n int) (tileM, tileK, tileN int) {
	tileK = minInt(k, c.cfg.Rows)
	tileN = minInt(n, c.cfg.Cols)

	halfIn := int64(c.cfg.InputBuf) / 2
	halfOut := int64(c.cfg.OutputBuf) / 2
	byInput := halfIn / int64(tileK)         // 1B activations
	byOutput := halfOut / (4 * int64(tileN)) // 4B accumulators
	tileM = int(minI64(byInput, byOutput))
	if tileM > m {
		tileM = m
	}
	if tileM < 1 {
		tileM = 1
	}
	return tileM, tileK, tileN
}

func actToVec(a model.ActKind) isa.VectorKind {
	switch a {
	case model.ReLU:
		return isa.VecReLU
	case model.LeakyReLU:
		return isa.VecLeakyReLU
	case model.GeLU:
		return isa.VecGeLU
	case model.Tanh:
		return isa.VecTanh
	case model.Sigmoid:
		return isa.VecSigmoid
	}
	return isa.VecNone
}

func layerToVec(l *model.Layer) isa.VectorKind {
	switch l.Kind {
	case model.Activation:
		return actToVec(l.Act)
	case model.Pool:
		return isa.VecPool
	case model.Norm:
		return isa.VecNorm
	case model.Elementwise:
		return isa.VecAdd
	case model.Softmax:
		return isa.VecSoftmax
	case model.Embedding:
		return isa.VecEmbed
	case model.Transpose:
		return isa.VecTranspose
	case model.Cast:
		return isa.VecCast
	case model.Preprocess:
		return isa.VecPreprocess
	}
	return isa.VecAdd
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
