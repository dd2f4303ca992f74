// container.go models function containers and cold starts: image pull from
// a registry, layer unpack, health check, and model-weight staging. Cold
// starts hit both the baseline and DSCS-Serverless (Section 5.3 / Figure 17);
// DSCS containers carry quantized int8 weights and stage them into the DSA
// over the drive's P2P path.
package faas

import (
	"time"

	"dscs/internal/model"
	"dscs/internal/tensor"
	"dscs/internal/units"
)

// Image is a container image for one function.
type Image struct {
	Name string
	// Base is the runtime layer stack (language runtime, libraries,
	// drivers); Weights is the model layer.
	Base    units.Bytes
	Weights units.Bytes
}

// Size is the full image size.
func (i Image) Size() units.Bytes { return i.Base + i.Weights }

// ImageFor builds the function image for a model at the platform's weight
// precision (fp32 on CPU/GPU-class platforms, int8 on the DSA).
func ImageFor(name string, g *model.Graph, d tensor.DType, base units.Bytes) Image {
	return Image{
		Name:    name,
		Base:    base,
		Weights: units.Bytes(g.WeightBytes(d)),
	}
}

// ColdStartModel parameterizes the cold path.
type ColdStartModel struct {
	// RegistryRTT and RegistryBW describe the image registry connection.
	RegistryRTT time.Duration
	RegistryBW  units.Bandwidth
	// UnpackBW is layer decompression + filesystem materialization.
	UnpackBW units.Bandwidth
	// HealthCheck is the readiness probe after start.
	HealthCheck time.Duration
	// WeightLoadBW is the rate of staging weights into the executing
	// device's memory (host DRAM for CPU-class platforms).
	WeightLoadBW units.Bandwidth
}

// DefaultColdStart returns a datacenter-typical cold path: a near registry
// with a warm CDN layer.
func DefaultColdStart() ColdStartModel {
	return ColdStartModel{
		RegistryRTT:  15 * time.Millisecond,
		RegistryBW:   3 * units.GBps, // in-datacenter registry mirror
		UnpackBW:     3 * units.GBps,
		HealthCheck:  15 * time.Millisecond,
		WeightLoadBW: 8 * units.GBps,
	}
}

// Pull returns the time to pull, unpack, and health-check an image.
func (m ColdStartModel) Pull(img Image) time.Duration {
	return m.RegistryRTT +
		m.RegistryBW.TransferTime(img.Size()) +
		m.UnpackBW.TransferTime(img.Size()) +
		m.HealthCheck
}

// StageWeights returns the time to load model weights into device memory.
func (m ColdStartModel) StageWeights(img Image) time.Duration {
	return m.WeightLoadBW.TransferTime(img.Weights)
}
