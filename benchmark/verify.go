package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"dscs"
)

// tally counts attempted and verified operations; ok_share is their ratio.
// A 429/5xx/ErrQueueFull/error, a failed response check, a broken sim
// ledger or a conservation violation each count as one attempted operation
// that was not verified.
type tally struct {
	attempted, ok int
	firstFailure  string
}

func (t *tally) pass() { t.attempted++; t.ok++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

// expect records one checked condition as an operation of its own (used for
// the end-of-run invariants, which belong to no single request).
func (t *tally) expect(err error, what string) {
	if err != nil {
		t.fail("%s: %v", what, err)
		return
	}
	t.pass()
}

func (t *tally) okShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.ok) / float64(t.attempted)
}

// observation is what the benchmark saw of one live request, from whichever
// entry point it used.
type observation struct {
	req       request
	status    int // HTTP status; 200 for the in-process entry points
	err       error
	platform  string
	totalMS   float64
	partsMS   float64 // sum of the breakdown parts
	batchSize int
}

// gatewayBody is the part of the gateway's invocation response the verifier
// reads.
type gatewayBody struct {
	Application string  `json:"application"`
	Platform    string  `json:"platform"`
	TotalMS     float64 `json:"total_ms"`
	StackMS     float64 `json:"stack_ms"`
	RemoteIOMS  float64 `json:"remote_io_ms"`
	ComputeMS   float64 `json:"compute_ms"`
	DeviceIOMS  float64 `json:"device_io_ms"`
	DriverMS    float64 `json:"driver_ms"`
	ColdMS      float64 `json:"cold_start_ms"`
	NotifyMS    float64 `json:"notify_ms"`
	BatchSize   int     `json:"batch_size"`
}

func observeHTTP(req request, status int, body []byte) observation {
	o := observation{req: req, status: status}
	if status != http.StatusOK {
		return o
	}
	var b gatewayBody
	if err := json.Unmarshal(body, &b); err != nil {
		o.err = err
		return o
	}
	o.platform, o.totalMS, o.batchSize = b.Platform, b.TotalMS, b.BatchSize
	o.partsMS = b.StackMS + b.RemoteIOMS + b.ComputeMS + b.DeviceIOMS + b.DriverMS + b.ColdMS + b.NotifyMS
	return o
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func observeInvocation(req request, inv dscs.ServedInvocation, err error) observation {
	o := observation{req: req, status: http.StatusOK, err: err}
	if err != nil {
		return o
	}
	bd := inv.Result.Breakdown
	o.platform, o.totalMS, o.batchSize = inv.Platform, ms(inv.Result.Total()), inv.BatchSize
	o.partsMS = ms(bd.Stack) + ms(bd.RemoteRead) + ms(bd.RemoteWrite) + ms(bd.Compute) +
		ms(bd.DeviceIO) + ms(bd.Driver) + ms(bd.ColdStart) + ms(bd.Notify)
	return o
}

// verifier holds the same-seed twin environment the live responses are
// checked against. It is never touched inside a timed region.
type verifier struct {
	twin   *dscs.Environment
	target string // the platform every request was aimed at
	// moved allows a response to name another platform than the target
	// (the balancer moved it); it is then checked against that platform.
	moved bool
	ref   map[refKey]float64
}

type refKey struct {
	platform  string
	app       uint8
	cold      bool
	batchSize int
}

func newVerifier(seed uint64, target string, moved bool) (*verifier, error) {
	twin, err := dscs.NewEnvironment(seed)
	if err != nil {
		return nil, err
	}
	return &verifier{twin: twin, target: target, moved: moved, ref: make(map[refKey]float64)}, nil
}

// reference is the twin's total for the same app on the named platform at
// the batch size the response reports.
func (v *verifier) reference(k refKey) (float64, error) {
	if ref, ok := v.ref[k]; ok {
		return ref, nil
	}
	r, ok := v.twin.Runners[k.platform]
	if !ok {
		return 0, fmt.Errorf("unknown platform %q", k.platform)
	}
	res, err := r.Invoke(v.twin.Suite[k.app], dscs.InvokeOptions{Batch: k.batchSize, Cold: k.cold, Quantile: 0.5})
	if err != nil {
		return 0, err
	}
	v.ref[k] = ms(res.Total())
	return v.ref[k], nil
}

// verify checks one observation and records it in t.
func (v *verifier) verify(o observation, t *tally) {
	switch {
	case o.status != http.StatusOK:
		t.fail("status %d", o.status)
	case o.err != nil:
		t.fail("request failed: %v", o.err)
	case o.platform != v.target && !v.moved:
		t.fail("served by %q, aimed at %q", o.platform, v.target)
	case o.batchSize < 1:
		t.fail("batch_size %d", o.batchSize)
	case math.Abs(o.partsMS-o.totalMS) > 1e-6*o.totalMS:
		t.fail("breakdown sums to %g ms, total_ms is %g", o.partsMS, o.totalMS)
	default:
		ref, err := v.reference(refKey{o.platform, o.req.app, o.req.cold, o.batchSize})
		switch {
		case err != nil:
			t.fail("reference: %v", err)
		case math.Abs(o.totalMS-ref) > 0.01*ref:
			t.fail("total_ms %g, reference Runner.Invoke gives %g", o.totalMS, ref)
		default:
			t.pass()
		}
	}
}
