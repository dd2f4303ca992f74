// Command dscsgate serves the OpenFaaS-style gateway over the simulated
// cluster: deploy Table 1 applications from their YAML, invoke them over
// HTTP, and scrape telemetry — the operator-facing face of DSCS-Serverless.
//
// Usage:
//
//	dscsgate -addr :8080 -workers 8 -policy criticality &
//	curl -X POST --data-binary @app.yaml localhost:8080/system/functions
//	curl -X POST -d '{"quantile":0.5}' localhost:8080/function/asset-damage
//	curl localhost:8080/system/functions
//	curl localhost:8080/metrics
//
// Pass -deploy-all to pre-deploy the whole benchmark suite. The serving
// engine is tuned with -workers (pool size per platform), -policy (fcfs,
// criticality), -queue-depth (admission bound; a full queue returns HTTP
// 429), -max-batch (same-benchmark request coalescing),
// -batch-linger (arms queue-level batch forming ahead of dispatch: queued
// work may wait this long for its batch to fill toward -max-batch, and the
// hold counts as queue delay; watch serve_batch_formed_total), -batch-slo
// (a per-request deadline budget that caps the hold; needs -batch-linger),
// -adaptive-estimates/-estimate-warmup (price batching and policy
// decisions with live latency digests instead of the static model-derived
// estimates once a benchmark has enough observations; watch the
// serve_latency_p50/p95/p99 gauges, the windowed quantiles that pricing
// reads), and -adaptive-balance (DSCS submissions spill to the CPU pool
// and idle pools steal queued work once a pool's adopted queue-delay p95
// diverges above a peer's; watch serve_spillover_total,
// serve_steal_total and the serve_queue_delay_p50/p95/p99 gauges).
//
// The failure model is armed with -hedge-factor (duplicate a straggling
// execution on a healthy peer once it outlives that multiple of its
// adopted service-p95; watch serve_hedges_fired_total/serve_hedges_won_
// total) and -fault-script (a scripted schedule of pool and drive kills
// and recoveries, e.g. '30s:pool-down:DSCS-Serverless;2m:pool-up:
// DSCS-Serverless'; watch serve_faults_total and serve_requeues_total).
//
// Invocation graphs run through POST /system/workflows (spec text body,
// offset:id=benchmark:deps stages joined by ';') or one-shot via
// -workflow; stages chain through object-store objects and place where
// their input's replica lives (watch the serve_workflow_* metrics).
//
// SIGINT or SIGTERM stops the listener, lets in-flight requests finish and
// drains the engine's queues before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dscs"
	"dscs/internal/faas"
	"dscs/internal/gateway"
	"dscs/internal/metrics"
	"dscs/internal/scale"
	"dscs/internal/serve"
	"dscs/internal/trace"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		seed        = flag.Uint64("seed", 7, "environment seed")
		deployAll   = flag.Bool("deploy-all", false, "pre-deploy the whole suite")
		demo        = flag.Bool("demo", false, "run a self-contained request demo and exit")
		workers     = flag.Int("workers", 4, "worker pool size per platform")
		policy      = flag.String("policy", "fcfs", "scheduling policy: "+strings.Join(serve.PolicyNames(), ", "))
		queueDepth  = flag.Int("queue-depth", 256, "admission queue bound per platform")
		maxBatch    = flag.Int("max-batch", serve.DefaultMaxBatch, "max same-benchmark requests coalesced per execution")
		linger      = flag.Duration("batch-linger", 0, "form same-benchmark batches across the whole queue before dispatch, holding queued work up to this long for its batch to fill toward -max-batch (0 disables)")
		batchSLO    = flag.Duration("batch-slo", 0, "per-request deadline budget bounding how long -batch-linger may hold a forming batch (0 = linger only; needs -batch-linger)")
		adaptive    = flag.Bool("adaptive-estimates", false, "price batching and policy decisions with live latency digests once warmed (static estimates stay the cold-start prior)")
		balance     = flag.Bool("adaptive-balance", false, "rebalance on queue delay: spill DSCS submissions to the CPU pool and let idle pools steal once a pool's adopted wait-p95 diverges above a peer's (off keeps the pools isolated)")
		warmup      = flag.Int("estimate-warmup", metrics.DefaultWarmup, "per-{benchmark,platform} completions before live estimates replace the static prior")
		minWorkers  = flag.Int("min-workers", 0, "elastic warm floor per platform; 0 allows scale-to-zero (needs -max-workers)")
		maxWorkers  = flag.Int("max-workers", 0, "elastic warm ceiling per platform; arms the worker lifecycle and replaces -workers (0 keeps fixed pools)")
		coldStart   = flag.Duration("cold-start", 0, "provisioning penalty a cold slot pays before serving (needs -max-workers)")
		idleLinger  = flag.Duration("idle-linger", 0, "idle grace before a surplus warm slot suspends (needs -max-workers)")
		prewarm     = flag.Bool("prewarm", false, "predictive autoscaling: pre-warm to the arrival-rate demand floor and surge on wait-p95 (needs -max-workers; default reactive)")
		hedgeFactor = new(finiteFloat)
		faultScript = flag.String("fault-script", "", "scripted fault schedule, e.g. '30s:pool-down:DSCS-Serverless;2m:pool-up:DSCS-Serverless' (kinds: pool-down, pool-up, drive-down, drive-up)")
		wfSpec      = flag.String("workflow", "", "run one invocation graph at startup and print its ledger, e.g. '0s:extract=credit-risk:;0s:shard=asset-damage:extract' (offset:id=benchmark:deps, ';'-separated)")
	)
	flag.Var(hedgeFactor, "hedge-factor", "dispatch a duplicate on a healthy peer once an execution outlives this multiple of its adopted service-p95; first completion wins (0 disables, must be finite and >= 1 otherwise)")
	flag.Parse()

	faults, err := trace.ParseFaultScript(*faultScript)
	if err != nil {
		fail(err)
	}
	elastic, err := elasticConfig(*minWorkers, *maxWorkers, *coldStart, *idleLinger, *prewarm)
	if err != nil {
		fail(err)
	}
	env, err := dscs.NewEnvironment(*seed)
	if err != nil {
		fail(err)
	}
	gw, err := gateway.NewWithOptions(env.Runners, "DSCS-Serverless", "Baseline (CPU)",
		serve.Options{
			Workers:           *workers,
			PolicyName:        *policy,
			QueueDepth:        *queueDepth,
			MaxBatch:          *maxBatch,
			BatchLinger:       *linger,
			BatchSLO:          *batchSLO,
			AdaptiveEstimates: *adaptive,
			AdaptiveBalance:   *balance,
			EstimateWarmup:    *warmup,
			Elastic:           elastic,
			HedgeFactor:       float64(*hedgeFactor),
			Faults:            faults,
		})
	if err != nil {
		fail(err)
	}
	defer gw.Close()

	if *deployAll || *demo {
		if err := deploySuite(gw); err != nil {
			fail(err)
		}
		fmt.Printf("Pre-deployed %d applications.\n", len(dscs.Suite()))
	}

	if *wfSpec != "" {
		// -workflow is a one-shot: run the graph through the API path,
		// print the ledger, exit.
		if err := runWorkflow(gw, *wfSpec); err != nil {
			fail(err)
		}
		return
	}

	if *demo {
		runDemo(gw)
		return
	}

	capacity := fmt.Sprintf("%d workers/platform", *workers)
	if elastic != nil {
		capacity = fmt.Sprintf("elastic %d..%d workers/platform (%s, cold-start %v, idle-linger %v)",
			elastic.Min, elastic.Max, elastic.Mode, elastic.ColdStart, elastic.IdleLinger)
	}
	fmt.Printf("DSCS-Serverless gateway listening on %s (%s, %s policy, queue %d, batch %d, linger %v, adaptive %v, balance %v)\n",
		*addr, capacity, *policy, *queueDepth, *maxBatch, *linger, *adaptive, *balance)
	if *hedgeFactor >= 1 {
		fmt.Printf("  hedging duplicates at %gx the adopted service-p95\n", *hedgeFactor)
	}
	if len(faults) > 0 {
		fmt.Printf("  fault script armed: %s\n", trace.FormatFaultScript(faults))
	}
	fmt.Println("  POST /system/functions   deploy (YAML body)")
	fmt.Println("  GET  /system/functions   list deployments")
	fmt.Println("  POST /system/workflows   run an invocation graph (offset:id=benchmark:deps body)")
	fmt.Println("  POST /function/<name>    invoke ({\"batch\":..,\"cold\":..,\"quantile\":..})")
	fmt.Println("  GET  /metrics            telemetry (incl. serve_* queue/batch metrics)")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	if err := serveUntil(ctx, l, gw); err != nil {
		fail(err)
	}
}

// elasticConfig builds the engine's elastic pool description from the
// five elastic flags: nil without -max-workers, which keeps fixed pools,
// and an error if another elastic flag is set without it.
func elasticConfig(minWorkers, maxWorkers int, coldStart, idleLinger time.Duration, prewarm bool) (*scale.Config, error) {
	if maxWorkers == 0 {
		if minWorkers != 0 || coldStart != 0 || idleLinger != 0 || prewarm {
			return nil, errors.New("-min-workers, -cold-start, -idle-linger and -prewarm need -max-workers")
		}
		return nil, nil
	}
	mode := scale.ModeReactive
	if prewarm {
		mode = scale.ModePredictive
	}
	return &scale.Config{Mode: mode, Min: minWorkers, Max: maxWorkers, ColdStart: coldStart, IdleLinger: idleLinger}, nil
}

// finiteFloat is the -hedge-factor flag: it refuses at parse time what the
// engine would (serve.CheckHedgeFactor) — strconv reads "NaN" and "Inf" as
// floats, and a non-finite factor would arm a hedge path that never fires.
type finiteFloat float64

func (f *finiteFloat) String() string { return strconv.FormatFloat(float64(*f), 'g', -1, 64) }

func (f *finiteFloat) Set(s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	if err := serve.CheckHedgeFactor(v); err != nil {
		return err
	}
	*f = finiteFloat(v)
	return nil
}

const (
	// readHeaderTimeout bounds how long a connection may take to send its
	// request headers, so a slow client cannot hold a connection open.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout bounds how long a keep-alive connection may sit between
	// requests before the server closes it.
	idleTimeout = 120 * time.Second
	// shutdownGrace bounds how long in-flight requests may run once the
	// server stops accepting.
	shutdownGrace = 30 * time.Second
)

// newServer serves h with the connection timeouts above.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serveUntil answers gw's API on l until ctx is done, then stops accepting,
// lets in-flight requests finish (up to shutdownGrace) and closes gw, so the
// engine has drained every queue when it returns.
func serveUntil(ctx context.Context, l net.Listener, gw *gateway.Gateway) error {
	defer gw.Close()
	srv := newServer(gw.Handler())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := srv.Shutdown(grace)
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// deploySuite pushes every Table 1 deployment through the API path.
func deploySuite(gw *gateway.Gateway) error {
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()
	for _, b := range dscs.Suite() {
		resp, err := http.Post(srv.URL+"/system/functions", "application/x-yaml",
			strings.NewReader(faas.DeploymentYAML(b)))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("deploy %s: status %d", b.Slug, resp.StatusCode)
		}
	}
	return nil
}

// runWorkflow submits one invocation graph through POST /system/workflows
// and prints the settled ledger.
func runWorkflow(gw *gateway.Gateway, spec string) error {
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/system/workflows?quantile=0.5", "text/plain",
		strings.NewReader(spec))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("workflow refused (status %d): %s", resp.StatusCode, strings.TrimSpace(string(body[:n])))
	}
	fmt.Printf("POST /system/workflows ->\n%s", body[:n])
	return nil
}

// runDemo exercises the API end to end without needing a free port.
func runDemo(gw *gateway.Gateway) {
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()
	client := srv.Client()
	client.Timeout = 10 * time.Second

	for _, target := range []string{
		"/function/remote-sensing",
		"/function/remote-sensing?platform=" + url.QueryEscape("Baseline (CPU)"),
	} {
		resp, err := client.Post(srv.URL+target, "application/json",
			strings.NewReader(`{"quantile":0.5}`))
		if err != nil {
			fail(err)
		}
		body := make([]byte, 4096)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		fmt.Printf("POST %s ->\n%s\n", target, body[:n])
	}
	resp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		fail(err)
	}
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	fmt.Printf("GET /metrics ->\n%s", body[:n])
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dscsgate:", err)
	os.Exit(1)
}
