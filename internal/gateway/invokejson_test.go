package gateway

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dscs/internal/faas"
	"dscs/internal/serve"
	"dscs/internal/units"
	"dscs/internal/workload"
)

// edgeFloats are the float64s where encoding/json's formatting changes
// shape: signed zeros, subnormals, the extremes, and either side of the
// 1e-6 and 1e21 switches between 'f' and 'e'.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 0.5, 1e20, 123456789e-15,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022, math.Nextafter(0x1p-1022, 0), // smallest normal, largest subnormal
	math.MaxFloat64, -math.MaxFloat64,
	1e-6, -1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
	1e-7, 1.5e-7, 1e-10, 9.999999e-7,
	1e21, -1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
	1e100, 1e-100,
}

// escapedNames each make encoding/json escape or rewrite something.
var escapedNames = []string{
	`a"b`, `back\slash`, "<tag>", "a&b", "tab\there", "\x00", "\x1f", "\x7f",
	"é", "日本", " ", "\xff", "bad\xc3",
}

func randomFloat(rng *rand.Rand) float64 {
	switch rng.IntN(4) {
	case 0:
		return edgeFloats[rng.IntN(len(edgeFloats))]
	case 1: // any finite bit pattern
		for {
			if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	case 2: // a plausible latency in milliseconds
		return rng.Float64() * 1000
	default: // any decade, either sign
		v := rng.Float64() * math.Pow(10, float64(rng.IntN(60)-30))
		if rng.IntN(2) == 0 {
			v = -v
		}
		return v
	}
}

func randomInt(rng *rand.Rand) int {
	switch rng.IntN(4) {
	case 0:
		return []int{0, 1, -1, math.MaxInt, math.MinInt, 8}[rng.IntN(6)]
	case 1:
		return int(rng.Uint64())
	default:
		return rng.IntN(2000) - 1000
	}
}

// randomName returns a name and whether it is drawn only from bytes
// encoding/json writes unescaped.
func randomName(rng *rand.Rand) (string, bool) {
	const plain = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 -_.()"
	var b []byte
	switch rng.IntN(8) {
	case 0:
		return escapedNames[rng.IntN(len(escapedNames))], false
	case 1: // any printable ASCII, quote, backslash and HTML bytes included
		for n := rng.IntN(12); n > 0; n-- {
			b = append(b, byte(0x20+rng.IntN(0x5f)))
		}
		return string(b), false
	default:
		for n := rng.IntN(20); n > 0; n-- {
			b = append(b, plain[rng.IntN(len(plain))])
		}
		return string(b), true
	}
}

// TestInvokeResponseMatchesEncoder holds the handler's rendering to the
// bytes json.Encoder with a two-space indent writes for the same struct, on
// seeded random responses built around encoding/json's formatting edges,
// and checks that the append-only path, not the fallback, renders every
// response whose names need no escaping.
func TestInvokeResponseMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	var s invokeScratch
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	n := 120_000
	if raceDetector {
		// One goroutine gives the detector nothing to find, and its
		// instrumentation makes each comparison ten times slower.
		n = 12_000
	}
	for i := 0; i < n; i++ {
		app, appPlain := randomName(rng)
		platform, platformPlain := randomName(rng)
		s.resp = invokeResponse{
			Application: app, Platform: platform,
			TotalMS: randomFloat(rng), StackMS: randomFloat(rng),
			RemoteIOMS: randomFloat(rng), ComputeMS: randomFloat(rng),
			DeviceIOMS: randomFloat(rng), DriverMS: randomFloat(rng),
			ColdMS: randomFloat(rng), NotifyMS: randomFloat(rng),
			EnergyJ: randomFloat(rng), QueuedMS: randomFloat(rng),
			BatchRequests: randomInt(rng), BatchSize: randomInt(rng),
		}
		want.Reset()
		if err := enc.Encode(&s.resp); err != nil {
			t.Fatalf("encoder refused %+v: %v", s.resp, err)
		}
		if err := s.renderResponse(); err != nil {
			t.Fatalf("render %+v: %v", s.resp, err)
		}
		if !bytes.Equal(s.out, want.Bytes()) {
			t.Fatalf("response %+v renders\n%s\nwant\n%s", s.resp, s.out, want.Bytes())
		}
		if _, fast := appendInvokeResponse(nil, &s.resp); appPlain && platformPlain && !fast {
			t.Fatalf("plain response %+v fell back to the encoder", s.resp)
		}
	}
}

// TestInvokeNonFiniteResponse: a NaN or infinite figure in a result is
// still the encoder's error, answered 500 with the encoder's message and
// counted in gateway_errors_total, and the scratch it dirtied serves the
// next request normally.
func TestInvokeNonFiniteResponse(t *testing.T) {
	var energy atomic.Uint64 // float64 bits of the next result's energy
	g := testGatewayWithOptions(t, 17, serve.Options{
		Execute: func(*faas.Runner, *workload.Benchmark, faas.Options) (faas.Result, error) {
			return faas.Result{
				Breakdown: faas.Breakdown{Compute: time.Millisecond},
				Energy:    units.Energy(math.Float64frombits(energy.Load())),
			}, nil
		},
	})
	h := g.Handler()
	deployDirect(t, h, "chatbot")
	for i, tc := range []struct {
		energy float64
		want   int
		body   string
	}{
		{math.NaN(), http.StatusInternalServerError, "json: unsupported value: NaN\n"},
		{math.Inf(1), http.StatusInternalServerError, "json: unsupported value: +Inf\n"},
		{2.5, http.StatusOK, ""},
		{math.Inf(-1), http.StatusInternalServerError, "json: unsupported value: -Inf\n"},
		{2.5, http.StatusOK, ""},
	} {
		energy.Store(math.Float64bits(tc.energy))
		errorsBefore := g.Telemetry().Counter("gateway_errors_total")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/function/chatbot", strings.NewReader(`{"quantile":0.5}`)))
		if rec.Code != tc.want {
			t.Fatalf("case %d (energy %v): status %d, want %d: %s", i, tc.energy, rec.Code, tc.want, rec.Body)
		}
		errs := g.Telemetry().Counter("gateway_errors_total") - errorsBefore
		if tc.want == http.StatusOK {
			var resp invokeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.EnergyJ != tc.energy || errs != 0 {
				t.Errorf("case %d: response %q (%v), %g errors counted", i, rec.Body, err, errs)
			}
			continue
		}
		if rec.Body.String() != tc.body {
			t.Errorf("case %d: body %q, want %q", i, rec.Body, tc.body)
		}
		if errs != 1 {
			t.Errorf("case %d: gateway_errors_total rose by %g, want 1", i, errs)
		}
	}
}

// TestScanInvokeRequestShapes: the bodies clients send take the scanner,
// and the shapes it must leave to json.Unmarshal do not.
func TestScanInvokeRequestShapes(t *testing.T) {
	for _, tc := range []struct {
		body string
		want invokeRequest // compared only when the scanner takes the body
		fast bool
	}{
		{`{"quantile":0.5}`, invokeRequest{Quantile: 0.5}, true},
		{`{"quantile":0.5,"cold":true}`, invokeRequest{Quantile: 0.5, Cold: true}, true},
		{" { \"batch\" :\t8 ,\n\"cold\":false,\"quantile\":-2.5E-3 }\r\n", invokeRequest{Batch: 8, Quantile: -2.5e-3}, true},
		{`{}`, invokeRequest{}, true},
		{`{"batch":2,"batch":3}`, invokeRequest{Batch: 3}, true},
		{`{"quantile":0}`, invokeRequest{}, true},
		{`{"batch":-0}`, invokeRequest{}, true},
		{`{"batch":1.0}`, invokeRequest{}, false},
		{`{"batch":1e2}`, invokeRequest{}, false},
		{`{"batch":9223372036854775808}`, invokeRequest{}, false},
		{`{"Quantile":1}`, invokeRequest{}, false},
		{`{"quantile":1e400}`, invokeRequest{}, false},
		{`{"quantile":.5}`, invokeRequest{}, false},
		{`{"quantile":01}`, invokeRequest{}, false},
		{`{"quantile":+1}`, invokeRequest{}, false},
		{`{"quantile":0x1p-2}`, invokeRequest{}, false},
		{`{"quantile":null}`, invokeRequest{}, false},
		{`{"cold":"true"}`, invokeRequest{}, false},
		{`{"cold":truex}`, invokeRequest{}, false},
		{`{"batch":"2"}`, invokeRequest{}, false},
		{`{"b\u0061tch":2}`, invokeRequest{}, false},
		{`{"batch":1,}`, invokeRequest{}, false},
		{`{"quantile":0.5} x`, invokeRequest{}, false},
		{`{"quantile":0.5}{}`, invokeRequest{}, false},
		{`null`, invokeRequest{}, false},
		{`[]`, invokeRequest{}, false},
		{`{`, invokeRequest{}, false},
	} {
		var got invokeRequest
		fast := scanInvokeRequest([]byte(tc.body), &got)
		if fast != tc.fast {
			t.Errorf("%q: scanner took it = %v, want %v", tc.body, fast, tc.fast)
		}
		if fast && got != tc.want {
			t.Errorf("%q: scanned %+v, want %+v", tc.body, got, tc.want)
		}
	}
}

// FuzzInvokeBody holds the scanner to json.Unmarshal and the handler to
// failing closed. Whenever the scanner takes a body, Unmarshal accepts it
// too and decodes the same request, bit for bit. Through the handler (with
// a stub execution, so a huge batch costs nothing) any body is answered
// 200, 400 or 413 and never panics. Machine-found inputs are committed
// under testdata/fuzz/FuzzInvokeBody.
func FuzzInvokeBody(f *testing.F) {
	for _, body := range []string{
		// The benchmark's two gw-closed bodies.
		`{"quantile":0.5}`,
		`{"quantile":0.5,"cold":true}`,
		// Shapes the scanner must leave to Unmarshal.
		`{"batch":1.0}`,
		`{"Quantile":1}`,
		`{"quantile":1e400}`,
		`null`,
		`{"quantile":0.5} trailing`,
		`{"batch":2,"batch":3,"cold":true,"cold":false}`,
		`{"b\u0061tch":2}`,
		"",
		" ",
	} {
		f.Add([]byte(body))
	}
	g := testGatewayWithOptions(f, 17, serve.Options{
		Execute: func(*faas.Runner, *workload.Benchmark, faas.Options) (faas.Result, error) {
			return faas.Result{Breakdown: faas.Breakdown{Compute: time.Millisecond}}, nil
		},
	})
	h := g.Handler()
	deployDirect(f, h, "asset-damage")
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast invokeRequest
		if scanInvokeRequest(body, &fast) {
			var ref invokeRequest
			if err := json.Unmarshal(body, &ref); err != nil {
				t.Fatalf("scanner took %q, json.Unmarshal refuses it: %v", body, err)
			}
			if fast.Batch != ref.Batch || fast.Cold != ref.Cold ||
				math.Float64bits(fast.Quantile) != math.Float64bits(ref.Quantile) {
				t.Fatalf("%q: scanner decoded %+v, json.Unmarshal %+v", body, fast, ref)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/function/asset-damage", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%q: status %d: %s", body, rec.Code, rec.Body)
		}
	})
}
