// Package network models the datacenter fabric between compute nodes and
// disaggregated storage: a base round-trip, an effective per-flow bandwidth,
// and a lognormal service-time component that produces the long tail the
// paper measures against S3 (p99 ~ 2.1x the median, Figure 3).
package network

import (
	"fmt"
	"math"
	"time"

	"dscs/internal/sim"
	"dscs/internal/units"
)

// Fabric describes one network path class.
type Fabric struct {
	// RTT is the deterministic round-trip between the endpoints.
	RTT time.Duration
	// PerFlowBW is the effective single-stream payload bandwidth
	// (well below link line rate: TCP, TLS, and service framing).
	PerFlowBW units.Bandwidth
	// FirstByte is the stochastic service component: request processing
	// at the remote service until the first payload byte, independent of
	// payload size.
	FirstByte sim.LogNormal
	// ServiceBW adds a payload-proportional service component (object
	// assembly, checksumming, replication fan-in) that carries the same
	// congestion tail; zero disables it.
	ServiceBW units.Bandwidth
}

// Validate rejects incomplete fabrics.
func (f Fabric) Validate() error {
	if f.RTT < 0 {
		return fmt.Errorf("network: negative RTT")
	}
	if f.PerFlowBW <= 0 {
		return fmt.Errorf("network: non-positive bandwidth")
	}
	if f.FirstByte.Median <= 0 || f.FirstByte.Sigma < 0 {
		return fmt.Errorf("network: invalid first-byte distribution")
	}
	return nil
}

// IntraDC returns the fabric between an EC2-class compute node and the
// S3-class object service in the same region: ~1 ms RTT, ~250 MB/s
// effective single-flow, and a ~22 ms median service time with the tail
// the paper characterizes (sigma 0.32 puts p99 at ~2.1x the median).
func IntraDC() Fabric {
	return Fabric{
		RTT:       time.Millisecond,
		PerFlowBW: 250 * units.MBps,
		FirstByte: sim.LogNormal{Median: 16 * time.Millisecond, Sigma: 0.34},
		ServiceBW: 360 * units.MBps,
	}
}

// Egress returns the fabric for notification-service egress: endpoint
// latency dominated, payloads tiny.
func Egress() Fabric {
	return Fabric{
		RTT:       2 * time.Millisecond,
		PerFlowBW: 100 * units.MBps,
		FirstByte: sim.LogNormal{Median: 8 * time.Millisecond, Sigma: 0.30},
	}
}

// TransferSigma is the lognormal sigma of the congestion multiplier on the
// payload-proportional components: large transfers see fatter tails because
// congestion degrades throughput, not just request latency.
const TransferSigma = 0.30

// payloadTime is the deterministic payload-proportional time: wire transfer
// plus the service's per-byte work.
func (f Fabric) payloadTime(payload units.Bytes) time.Duration {
	d := f.PerFlowBW.TransferTime(payload)
	if f.ServiceBW > 0 {
		d += f.ServiceBW.TransferTime(payload)
	}
	return d
}

// Priced is a fabric priced at one point of its congestion distribution:
// the multipliers that point puts on the first-byte and on the
// payload-proportional components, so pricing a request is arithmetic.
// One standard-normal z drives both multipliers, which correlates the
// service and transfer tails (one congested path slows everything about
// the request).
type Priced struct {
	f        Fabric
	p        float64 // the percentile At priced; NaN for a sampled draw
	fb, xfer float64
}

// atZ prices the fabric at one standard-normal draw z.
func (f Fabric) atZ(z float64) Priced {
	return Priced{
		f:    f,
		p:    math.NaN(),
		fb:   math.Exp(f.FirstByte.Sigma * z),
		xfer: math.Exp(TransferSigma * z),
	}
}

// At prices the fabric at percentile p — the tail sensitivity sweep of
// Figure 15 uses this instead of sampling. The same percentile applies to
// the service and transfer components, modeling the correlated congestion
// the sweep explores.
func (f Fabric) At(p float64) Priced {
	pr := f.atZ(sim.NormQuantile(p))
	pr.p = p
	return pr
}

// Matches reports whether pr is fabric f priced at percentile p, so a
// caller can keep one Priced and reprice only when either changes.
func (pr Priced) Matches(f Fabric, p float64) bool {
	return pr.p == p && pr.f == f
}

// Latency is the end-to-end time of one request moving payload bytes
// across the priced fabric.
func (pr Priced) Latency(payload units.Bytes) time.Duration {
	fb := time.Duration(float64(pr.f.FirstByte.Median) * pr.fb)
	xfer := time.Duration(float64(pr.f.payloadTime(payload)) * pr.xfer)
	return pr.f.RTT + fb + xfer
}

// RequestLatency samples the end-to-end time of one request moving payload
// bytes across the fabric.
func (f Fabric) RequestLatency(payload units.Bytes, rng *sim.RNG) time.Duration {
	return f.atZ(rng.NormFloat64()).Latency(payload)
}
