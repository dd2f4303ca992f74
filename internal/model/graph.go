// Package model defines the neural-network graph IR consumed by the compiler
// and a zoo of the eight architectures behind the paper's Table 1 benchmark
// suite. Only structure is represented (shapes, parameter counts, operation
// kinds) — the simulator never executes real arithmetic.
package model

import (
	"fmt"
	"sync/atomic"

	"dscs/internal/tensor"
)

// LayerKind discriminates the operation a layer performs.
type LayerKind int

// Layer kinds. GEMM-like kinds (Conv2D, DepthwiseConv2D, Dense, MatMul) map
// to the Matrix Processing Unit; the rest map to the Vector Processing Unit.
const (
	Conv2D LayerKind = iota
	DepthwiseConv2D
	Dense
	MatMul // activation x activation batched matmul (attention scores etc.)
	Activation
	Pool
	Norm
	Elementwise
	Softmax
	Embedding
	Transpose
	Cast
	Preprocess // tokenization / resize / normalize style data preparation
)

// String names the layer kind.
func (k LayerKind) String() string {
	switch k {
	case Conv2D:
		return "conv2d"
	case DepthwiseConv2D:
		return "dwconv2d"
	case Dense:
		return "dense"
	case MatMul:
		return "matmul"
	case Activation:
		return "activation"
	case Pool:
		return "pool"
	case Norm:
		return "norm"
	case Elementwise:
		return "eltwise"
	case Softmax:
		return "softmax"
	case Embedding:
		return "embedding"
	case Transpose:
		return "transpose"
	case Cast:
		return "cast"
	case Preprocess:
		return "preprocess"
	}
	return "unknown"
}

// ActKind identifies an activation or vector transform.
type ActKind int

// Activation kinds supported by the VPU.
const (
	NoAct ActKind = iota
	ReLU
	GeLU
	Tanh
	Sigmoid
	LeakyReLU
)

// String names the activation.
func (a ActKind) String() string {
	switch a {
	case NoAct:
		return "none"
	case ReLU:
		return "relu"
	case GeLU:
		return "gelu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	case LeakyReLU:
		return "leaky_relu"
	}
	return "unknown"
}

// Layer is one operation in a graph. Fields are populated according to Kind;
// the builder methods on Graph keep them consistent.
type Layer struct {
	Name string
	Kind LayerKind

	// Spatial parameters for Conv2D / DepthwiseConv2D / Pool.
	InH, InW, InC  int
	OutH, OutW     int
	OutC           int
	KH, KW, Stride int

	// Dense parameters.
	InFeatures, OutFeatures int

	// MatMul parameters (per-instance dims and instance count, e.g. heads).
	M, K, N, Count int

	// Vector parameters.
	Act          ActKind
	Elems        int64 // per-batch-item element count for vector kinds
	NormFeatures int   // learned scale/shift width for Norm layers

	// Fused activation applied by the MPU epilogue (set by builders).
	FusedAct ActKind

	// HasBias adds OutC / OutFeatures bias parameters.
	HasBias bool
}

// IsGEMM reports whether the layer runs on the Matrix Processing Unit.
func (l *Layer) IsGEMM() bool {
	switch l.Kind {
	case Conv2D, DepthwiseConv2D, Dense, MatMul:
		return true
	}
	return false
}

// GEMMDims returns the lowered GEMM dimensions for one batch item:
// count independent (m x k) * (k x n) products. Conv2D lowers via im2col.
// For token-wise Dense layers (sequences), M carries the tokens per item.
// ok is false for vector layers.
func (l *Layer) GEMMDims() (m, k, n, count int, ok bool) {
	switch l.Kind {
	case Conv2D:
		return l.OutH * l.OutW, l.KH * l.KW * l.InC, l.OutC, 1, true
	case DepthwiseConv2D:
		// One small GEMM per channel: im2col over a single channel.
		return l.OutH * l.OutW, l.KH * l.KW, 1, l.InC, true
	case Dense:
		m := l.M
		if m <= 0 {
			m = 1
		}
		return m, l.InFeatures, l.OutFeatures, 1, true
	case MatMul:
		return l.M, l.K, l.N, l.Count, true
	}
	return 0, 0, 0, 0, false
}

// WeightElems returns the number of learned parameters in the layer.
func (l *Layer) WeightElems() int64 {
	var w int64
	switch l.Kind {
	case Conv2D:
		w = int64(l.KH) * int64(l.KW) * int64(l.InC) * int64(l.OutC)
		if l.HasBias {
			w += int64(l.OutC)
		}
	case DepthwiseConv2D:
		w = int64(l.KH) * int64(l.KW) * int64(l.InC)
		if l.HasBias {
			w += int64(l.InC)
		}
	case Dense:
		w = int64(l.InFeatures) * int64(l.OutFeatures)
		if l.HasBias {
			w += int64(l.OutFeatures)
		}
	case Norm:
		w = 2 * int64(l.NormFeatures) // scale and shift over the feature dim
	case Embedding:
		w = int64(l.InFeatures) * int64(l.OutFeatures) // vocab x dim
	}
	return w
}

// FLOPs returns the multiply-accumulate-dominated floating-point operation
// count for one batch item (2 ops per MAC for GEMM kinds; 1 op per element
// for vector kinds).
func (l *Layer) FLOPs() int64 {
	if m, k, n, c, ok := l.GEMMDims(); ok {
		return 2 * int64(m) * int64(k) * int64(n) * int64(c)
	}
	switch l.Kind {
	case Softmax:
		return 5 * l.Elems // exp, sum, div amortized
	case Norm:
		return 8 * l.Elems
	case Embedding:
		return l.Elems
	default:
		return l.Elems
	}
}

// InputElems returns the per-batch-item activation input element count.
func (l *Layer) InputElems() int64 {
	switch l.Kind {
	case Conv2D, DepthwiseConv2D, Pool:
		return int64(l.InH) * int64(l.InW) * int64(l.InC)
	case Dense:
		m := int64(l.M)
		if m <= 0 {
			m = 1
		}
		return m * int64(l.InFeatures)
	case MatMul:
		return int64(l.Count) * (int64(l.M)*int64(l.K) + int64(l.K)*int64(l.N))
	default:
		return l.Elems
	}
}

// OutputElems returns the per-batch-item activation output element count.
func (l *Layer) OutputElems() int64 {
	switch l.Kind {
	case Conv2D:
		return int64(l.OutH) * int64(l.OutW) * int64(l.OutC)
	case DepthwiseConv2D, Pool:
		return int64(l.OutH) * int64(l.OutW) * int64(l.InC)
	case Dense:
		m := int64(l.M)
		if m <= 0 {
			m = 1
		}
		return m * int64(l.OutFeatures)
	case MatMul:
		return int64(l.Count) * int64(l.M) * int64(l.N)
	default:
		return l.Elems
	}
}

// Graph is an ordered sequence of layers with a named input shape.
type Graph struct {
	Name       string
	InputShape tensor.Shape
	Layers     []*Layer

	// builder state: current spatial feature-map shape.
	curH, curW, curC int
	curFeatures      int64

	// sums memoizes the per-layer totals, so the roofline's per-call
	// reads are arithmetic rather than graph walks.
	sums atomic.Pointer[graphSums]
}

// graphSums are a graph's totals, taken when it had the given number of
// layers. A graph grows only by appending, so a memo taken before the
// latest append shows a short count and is re-derived; editing a Layer in
// place after the first read is not supported.
type graphSums struct {
	layers                    int
	params, flops, activation int64
}

// totals returns the graph's sums, deriving them on the first read after
// the last append. Safe for concurrent readers: racing derivations store
// equal values.
func (g *Graph) totals() *graphSums {
	if s := g.sums.Load(); s != nil && s.layers == len(g.Layers) {
		return s
	}
	s := &graphSums{layers: len(g.Layers)}
	for _, l := range g.Layers {
		s.params += l.WeightElems()
		s.flops += l.FLOPs()
		s.activation += l.OutputElems()
	}
	g.sums.Store(s)
	return s
}

// NewGraph starts a graph whose input is an H x W x C image.
func NewGraph(name string, h, w, c int) *Graph {
	return &Graph{
		Name:       name,
		InputShape: tensor.Shape{h, w, c},
		curH:       h, curW: w, curC: c,
		curFeatures: int64(h) * int64(w) * int64(c),
	}
}

// NewSequenceGraph starts a graph whose input is a token sequence.
func NewSequenceGraph(name string, seqLen int) *Graph {
	return &Graph{
		Name:        name,
		InputShape:  tensor.Shape{seqLen},
		curFeatures: int64(seqLen),
	}
}

// NewFeatureGraph starts a graph whose input is a flat feature vector.
func NewFeatureGraph(name string, features int) *Graph {
	return &Graph{
		Name:        name,
		InputShape:  tensor.Shape{features},
		curFeatures: int64(features),
	}
}

func (g *Graph) add(l *Layer) *Layer {
	g.Layers = append(g.Layers, l)
	return l
}

func convOut(in, k, stride, pad int) int {
	return (in-k+2*pad)/stride + 1
}

// Conv adds a 2D convolution with "same"-style padding pad, fused act, and
// bias, updating the tracked feature-map shape.
func (g *Graph) Conv(name string, outC, k, stride, pad int, act ActKind) *Layer {
	l := &Layer{
		Name: name, Kind: Conv2D,
		InH: g.curH, InW: g.curW, InC: g.curC,
		OutC: outC, KH: k, KW: k, Stride: stride,
		FusedAct: act, HasBias: true,
	}
	l.OutH = convOut(g.curH, k, stride, pad)
	l.OutW = convOut(g.curW, k, stride, pad)
	g.curH, g.curW, g.curC = l.OutH, l.OutW, outC
	g.curFeatures = int64(g.curH) * int64(g.curW) * int64(g.curC)
	return g.add(l)
}

// ConvBranch adds a convolution that reads an explicit input shape and does
// not advance the builder's tracked shape. It models a parallel branch
// (e.g. a residual downsample or an inception tower stage).
func (g *Graph) ConvBranch(name string, inH, inW, inC, outC, kh, kw, stride, padH, padW int, act ActKind) *Layer {
	l := &Layer{
		Name: name, Kind: Conv2D,
		InH: inH, InW: inW, InC: inC,
		OutC: outC, KH: kh, KW: kw, Stride: stride,
		FusedAct: act, HasBias: true,
	}
	l.OutH = convOut(inH, kh, stride, padH)
	l.OutW = convOut(inW, kw, stride, padW)
	return g.add(l)
}

// SetShape overrides the tracked feature-map shape, used after concatenating
// parallel branches the linear tracker cannot follow.
func (g *Graph) SetShape(h, w, c int) {
	g.curH, g.curW, g.curC = h, w, c
	g.curFeatures = int64(h) * int64(w) * int64(c)
}

// Shape reports the tracked feature-map shape.
func (g *Graph) Shape() (h, w, c int) { return g.curH, g.curW, g.curC }

// TokenDense adds a fully connected layer applied independently to each of
// seq tokens (the projection layers of transformer models).
func (g *Graph) TokenDense(name string, seq, inFeatures, outFeatures int, act ActKind) *Layer {
	l := &Layer{
		Name: name, Kind: Dense,
		InFeatures: inFeatures, OutFeatures: outFeatures,
		M:        seq,
		FusedAct: act, HasBias: true,
	}
	g.curFeatures = int64(seq) * int64(outFeatures)
	return g.add(l)
}

// DWConv adds a depthwise convolution over the current feature map.
func (g *Graph) DWConv(name string, k, stride, pad int, act ActKind) *Layer {
	l := &Layer{
		Name: name, Kind: DepthwiseConv2D,
		InH: g.curH, InW: g.curW, InC: g.curC,
		KH: k, KW: k, Stride: stride,
		FusedAct: act, HasBias: true,
	}
	l.OutH = convOut(g.curH, k, stride, pad)
	l.OutW = convOut(g.curW, k, stride, pad)
	g.curH, g.curW = l.OutH, l.OutW
	g.curFeatures = int64(g.curH) * int64(g.curW) * int64(g.curC)
	return g.add(l)
}

// MaxPool adds a pooling layer (compute-wise identical to average pooling
// for the simulator).
func (g *Graph) MaxPool(name string, k, stride, pad int) *Layer {
	l := &Layer{
		Name: name, Kind: Pool,
		InH: g.curH, InW: g.curW, InC: g.curC,
		KH: k, KW: k, Stride: stride,
	}
	l.OutH = convOut(g.curH, k, stride, pad)
	l.OutW = convOut(g.curW, k, stride, pad)
	l.Elems = int64(l.OutH) * int64(l.OutW) * int64(l.InC) * int64(k) * int64(k)
	g.curH, g.curW = l.OutH, l.OutW
	g.curFeatures = int64(g.curH) * int64(g.curW) * int64(g.curC)
	return g.add(l)
}

// GlobalPool reduces the spatial dims to 1x1.
func (g *Graph) GlobalPool(name string) *Layer {
	l := &Layer{
		Name: name, Kind: Pool,
		InH: g.curH, InW: g.curW, InC: g.curC,
		KH: g.curH, KW: g.curW, Stride: 1,
		OutH: 1, OutW: 1,
		Elems: int64(g.curH) * int64(g.curW) * int64(g.curC),
	}
	g.curH, g.curW = 1, 1
	g.curFeatures = int64(g.curC)
	return g.add(l)
}

// Dense adds a fully connected layer from the current flattened features.
func (g *Graph) Dense(name string, outFeatures int, act ActKind) *Layer {
	l := &Layer{
		Name: name, Kind: Dense,
		InFeatures: int(g.curFeatures), OutFeatures: outFeatures,
		FusedAct: act, HasBias: true,
	}
	g.curFeatures = int64(outFeatures)
	g.curH, g.curW, g.curC = 0, 0, 0
	return g.add(l)
}

// BatchMatMul adds count independent (m x k)*(k x n) activation products.
func (g *Graph) BatchMatMul(name string, m, k, n, count int) *Layer {
	l := &Layer{Name: name, Kind: MatMul, M: m, K: k, N: n, Count: count}
	g.curFeatures = int64(count) * int64(m) * int64(n)
	return g.add(l)
}

// Activate adds a standalone activation over elems elements.
func (g *Graph) Activate(name string, act ActKind, elems int64) *Layer {
	return g.add(&Layer{Name: name, Kind: Activation, Act: act, Elems: elems})
}

// LayerNorm adds a normalization over elems elements with learned
// scale/shift parameters of width features.
func (g *Graph) LayerNorm(name string, elems int64, features int) *Layer {
	return g.add(&Layer{Name: name, Kind: Norm, Elems: elems, NormFeatures: features})
}

// SoftmaxOver adds a softmax over elems elements.
func (g *Graph) SoftmaxOver(name string, elems int64) *Layer {
	return g.add(&Layer{Name: name, Kind: Softmax, Elems: elems})
}

// Residual adds an elementwise addition over elems elements.
func (g *Graph) Residual(name string, elems int64) *Layer {
	return g.add(&Layer{Name: name, Kind: Elementwise, Elems: elems})
}

// Embed adds an embedding lookup (vocab x dim table, seqLen lookups).
func (g *Graph) Embed(name string, vocab, dim, seqLen int) *Layer {
	l := &Layer{
		Name: name, Kind: Embedding,
		InFeatures: vocab, OutFeatures: dim,
		Elems: int64(seqLen) * int64(dim),
	}
	g.curFeatures = int64(seqLen) * int64(dim)
	return g.add(l)
}

// Prep adds a data pre/post-processing vector op (resize, normalize,
// tokenize, cast) of the given element volume.
func (g *Graph) Prep(name string, elems int64) *Layer {
	return g.add(&Layer{Name: name, Kind: Preprocess, Elems: elems})
}

// Params returns the total learned parameter count.
func (g *Graph) Params() int64 { return g.totals().params }

// FLOPs returns the total op count for one batch item.
func (g *Graph) FLOPs() int64 { return g.totals().flops }

// ActivationElems returns the summed output elements of every layer for
// one batch item: the activation traffic a roofline model charges.
func (g *Graph) ActivationElems() int64 { return g.totals().activation }

// MACs returns the total GEMM multiply-accumulate count for one batch item.
func (g *Graph) MACs() int64 {
	var n int64
	for _, l := range g.Layers {
		if m, k, nn, c, ok := l.GEMMDims(); ok {
			n += int64(m) * int64(k) * int64(nn) * int64(c)
		}
	}
	return n
}

// WeightBytes returns parameter storage at the given dtype.
func (g *Graph) WeightBytes(d tensor.DType) int64 {
	return g.Params() * int64(d.Size())
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("%s: %d layers, %.1fM params, %.2f GFLOPs",
		g.Name, len(g.Layers), float64(g.Params())/1e6, float64(g.FLOPs())/1e9)
}

// Validate checks builder invariants: every layer has positive dims for its
// kind. It returns the first problem found.
func (g *Graph) Validate() error {
	for i, l := range g.Layers {
		switch l.Kind {
		case Conv2D, DepthwiseConv2D:
			if l.InH <= 0 || l.InW <= 0 || l.InC <= 0 || l.OutH <= 0 || l.OutW <= 0 || l.KH <= 0 {
				return fmt.Errorf("model: %s layer %d (%s) has non-positive dims", g.Name, i, l.Name)
			}
			if l.Kind == Conv2D && l.OutC <= 0 {
				return fmt.Errorf("model: %s layer %d (%s) conv without output channels", g.Name, i, l.Name)
			}
		case Dense:
			if l.InFeatures <= 0 || l.OutFeatures <= 0 {
				return fmt.Errorf("model: %s layer %d (%s) dense with non-positive features", g.Name, i, l.Name)
			}
		case MatMul:
			if l.M <= 0 || l.K <= 0 || l.N <= 0 || l.Count <= 0 {
				return fmt.Errorf("model: %s layer %d (%s) matmul with non-positive dims", g.Name, i, l.Name)
			}
		default:
			if l.OutputElems() < 0 {
				return fmt.Errorf("model: %s layer %d (%s) negative element count", g.Name, i, l.Name)
			}
		}
	}
	return nil
}
