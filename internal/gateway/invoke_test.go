package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"dscs/internal/faas"
	"dscs/internal/trace"
	"dscs/internal/workload"
)

// raceDetector is set by race_test.go under -race.
var raceDetector bool

// deployDirect registers slug through the handler without a server.
func deployDirect(t testing.TB, h http.Handler, slug string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/system/functions",
		strings.NewReader(faas.DeploymentYAML(workload.BySlug(slug)))))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("deploy status = %d: %s", rec.Code, rec.Body)
	}
}

// failingBody yields some bytes and then a read error.
type failingBody struct{ sent bool }

func (f *failingBody) Read(p []byte) (int, error) {
	if f.sent {
		return 0, errors.New("connection reset")
	}
	f.sent = true
	return copy(p, `{"quantile":`), nil
}

// TestInvokeBodyFailsClosed: a body the gateway could not read in full, or
// could not parse, is refused instead of running with default options, and
// none of the refusals counts as a gateway error or a throttle.
func TestInvokeBodyFailsClosed(t *testing.T) {
	g := testGateway(t)
	h := g.Handler()
	deployDirect(t, h, "asset-damage")

	pad := strings.Repeat(" ", maxInvokeBody-len(`{"quantile":0.5}`))
	for _, tc := range []struct {
		name  string
		body  io.Reader
		want  int
		batch int // the batch size a served request must report
	}{
		{"empty", strings.NewReader(""), http.StatusOK, 1},
		{"nil", nil, http.StatusOK, 1},
		{"valid", strings.NewReader(`{"quantile":0.5,"batch":2}`), http.StatusOK, 2},
		{"malformed", strings.NewReader(`{"quantile":`), http.StatusBadRequest, 0},
		{"wrong type", strings.NewReader(`{"batch":"many"}`), http.StatusBadRequest, 0},
		{"at the limit", strings.NewReader(`{"quantile":0.5}` + pad), http.StatusOK, 1},
		{"oversize", strings.NewReader(`{"quantile":0.5}` + pad + " "), http.StatusRequestEntityTooLarge, 0},
		{"read error", &failingBody{}, http.StatusBadRequest, 0},
	} {
		// Twice each, so a scratch dirtied by one request serves the next.
		for i := 0; i < 2; i++ {
			switch b := tc.body.(type) {
			case *failingBody:
				b.sent = false
			case *strings.Reader:
				if _, err := b.Seek(0, io.SeekStart); err != nil {
					t.Fatal(err)
				}
			}
			req := httptest.NewRequest(http.MethodPost, "/function/asset-damage", nil)
			if tc.body != nil {
				req.Body = io.NopCloser(tc.body)
			} else {
				req.Body = nil
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Errorf("%s: status = %d, want %d (%s)", tc.name, rec.Code, tc.want, strings.TrimSpace(rec.Body.String()))
			}
			if tc.want != http.StatusOK {
				continue
			}
			var resp invokeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.TotalMS <= 0 {
				t.Errorf("%s: response %q (%v)", tc.name, rec.Body, err)
			}
			if resp.BatchSize != tc.batch {
				t.Errorf("%s: batch size = %d, want %d: a stale request leaked through the scratch", tc.name, resp.BatchSize, tc.batch)
			}
		}
	}
	tel := g.Telemetry()
	if e, th := tel.Counter("gateway_errors_total"), tel.Counter("gateway_throttled_total"); e != 0 || th != 0 {
		t.Errorf("refused bodies counted as errors (%g) or throttles (%g)", e, th)
	}
	if got := tel.Counter("gateway_invocations_total"); got != 8 {
		t.Errorf("gateway_invocations_total = %g, want 8", got)
	}
}

// TestAdminBodiesFailClosed: the deploy YAML and the workflow spec are read
// whole or refused — a body past the bound is 413 and a broken read 400,
// never a parse of the prefix that fit.
func TestAdminBodiesFailClosed(t *testing.T) {
	g := testGateway(t)
	h := g.Handler()
	deployDirect(t, h, "asset-damage")
	yaml := faas.DeploymentYAML(workload.BySlug("asset-damage"))
	spec := "0s:a=asset-damage:"
	for _, tc := range []struct {
		name, path string
		body       io.Reader
		want       int
	}{
		{"deploy at the limit", "/system/functions", strings.NewReader(yaml + strings.Repeat("\n", maxAdminBody-len(yaml))), http.StatusAccepted},
		{"deploy oversize", "/system/functions", strings.NewReader(yaml + strings.Repeat("\n", maxAdminBody-len(yaml)+1)), http.StatusRequestEntityTooLarge},
		{"deploy read error", "/system/functions", &failingBody{}, http.StatusBadRequest},
		{"workflow at the limit", "/system/workflows", strings.NewReader(spec + strings.Repeat("\n", maxAdminBody-len(spec))), http.StatusOK},
		{"workflow oversize", "/system/workflows", strings.NewReader(spec + strings.Repeat("\n", maxAdminBody-len(spec)+1)), http.StatusRequestEntityTooLarge},
		{"workflow read error", "/system/workflows", &failingBody{}, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, tc.body))
		if rec.Code != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, rec.Code, tc.want, strings.TrimSpace(rec.Body.String()))
		}
	}
}

// TestInvokeResponseBytes pins the response to what the handler has always
// produced: json.Encoder with a two-space indent over the same struct,
// trailing newline and encoding/json's float formatting included.
func TestInvokeResponseBytes(t *testing.T) {
	g := testGateway(t)
	h := g.Handler()
	deployDirect(t, h, "chatbot")
	for _, target := range []string{
		"/function/chatbot",
		"/function/chatbot?platform=Baseline%20(CPU)",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(`{"quantile":0.5}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q", target, ct)
		}
		var resp invokeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("%s: response bytes\n%q\nwant\n%q", target, rec.Body.Bytes(), want.Bytes())
		}
		if !bytes.HasPrefix(rec.Body.Bytes(), []byte("{\n  \"application\": \"chatbot\",\n  \"platform\": ")) ||
			!bytes.HasSuffix(rec.Body.Bytes(), []byte("\n}\n")) {
			t.Errorf("%s: layout changed: %q", target, rec.Body.Bytes())
		}
	}
}

// reusableWriter is the least a handler needs from a ResponseWriter, kept
// across requests so the measurement below counts the handler's own
// allocations and not a recorder's.
type reusableWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *reusableWriter) Header() http.Header         { return w.header }
func (w *reusableWriter) WriteHeader(status int)      { w.status = status }
func (w *reusableWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// rewindBody replays one request body without a new reader per request.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// warmInvoker returns a function serving one POST /function/<slug> through
// h with a reused request, body and writer, so counting its allocations
// counts the handler's own.
func warmInvoker(t testing.TB, h http.Handler, slug string) func() {
	payload := []byte(`{"quantile":0.5}`)
	body := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, "/function/"+slug, nil)
	req.Body = body
	w := &reusableWriter{header: http.Header{}}
	return func() {
		body.Reset(payload)
		w.body.Reset()
		w.status = http.StatusOK
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body.String())
		}
	}
}

// TestWarmInvokeHandlerAllocations pins the handler's share of a warm POST
// /function/<slug>: body scan, submit, execution and the rendered response
// allocate nothing, so the three left are the ServeMux match.
func TestWarmInvokeHandlerAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := testGateway(t)
	h := g.Handler()
	deployDirect(t, h, "asset-damage")
	serve := warmInvoker(t, h, "asset-damage")
	serve()
	got := testing.AllocsPerRun(200, serve)
	t.Logf("warm invoke: %v allocations per request", got)
	if got > 3 {
		t.Errorf("warm invoke allocates %v times per request, want <= 3", got)
	}
}

// mallocs counts the heap allocations of one call of f, at GOMAXPROCS 1 as
// testing.AllocsPerRun counts them, but without a warm-up call: what is
// measured here is the first call after something else ran.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestWorkflowKeepsDeployedPlan: a workflow stage runs the benchmark object
// the gateway deployed, the workload catalogue's, so the runner's plan for
// the slug survives the workflow and the next warm invoke allocates what a
// warm invoke always does. A stage that built its own benchmark object
// rebuilt the model graphs and evicted the deployment's plan: the workflow
// allocated 664 times and the invoke after it 231. Each count is the least
// of five rounds, so a straggling engine goroutine that allocates inside one
// window does not fail the test; an evicted plan shows in every round.
func TestWorkflowKeepsDeployedPlan(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := testGateway(t)
	h := g.Handler()
	deployDirect(t, h, "chatbot")
	serve := warmInvoker(t, h, "chatbot")
	serve()
	serve()
	spec, err := trace.ParseWorkflowSpec("0s:only=chatbot:")
	if err != nil {
		t.Fatal(err)
	}
	workflow, next := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for round := 0; round < 5; round++ {
		workflow = min(workflow, mallocs(func() {
			res, err := g.Engine().SubmitWorkflow(spec, faas.Options{Quantile: 0.5})
			if err != nil || !res.Succeeded {
				t.Fatalf("workflow %+v: %v", res, err)
			}
		}))
		next = min(next, mallocs(serve))
	}
	t.Logf("one-stage workflow: %d allocations; the invoke after it: %d", workflow, next)
	if next > 3 {
		t.Errorf("the warm invoke after a workflow allocates %d times, want <= 3: the workflow evicted the deployment's plan", next)
	}
	if workflow > 150 {
		t.Errorf("a one-stage workflow allocates %d times, want <= 150", workflow)
	}
}
