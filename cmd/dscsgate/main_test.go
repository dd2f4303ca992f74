package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dscs"
	"dscs/internal/faas"
	"dscs/internal/gateway"
	"dscs/internal/scale"
	"dscs/internal/serve"
)

// TestServeUntilDrainsOnCancel serves the suite over loopback while clients
// invoke it, cancels the context the way SIGINT or SIGTERM does, and holds
// serveUntil to a clean return with the engine closed and its books
// balanced.
func TestServeUntilDrainsOnCancel(t *testing.T) {
	env, err := dscs.NewEnvironment(7)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.NewWithOptions(env.Runners, "DSCS-Serverless", "Baseline (CPU)",
		serve.Options{Workers: 2, QueueDepth: 64, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if err := deploySuite(gw); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serveUntil(ctx, l, gw) }()

	url := "http://" + l.Addr().String() + "/function/asset-damage"
	// warmed closes once the server has answered 20 invocations, so the
	// cancellation lands while clients are still sending.
	var ok atomic.Int64
	warmed := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			// Invoke until the server stops answering.
			for {
				resp, err := client.Post(url, "application/json", strings.NewReader(`{"quantile":0.5}`))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return
				}
				if ok.Add(1) == 20 {
					close(warmed)
				}
			}
		}()
	}
	select {
	case <-warmed:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d invocations answered before the deadline", ok.Load())
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveUntil: %v", err)
		}
	case <-time.After(shutdownGrace + 5*time.Second):
		t.Fatal("serveUntil did not return after cancellation")
	}
	wg.Wait()
	if err := gw.Engine().Conservation(); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Engine().Submit("DSCS-Serverless", dscs.Suite()[0], faas.Options{Quantile: 0.5}); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("submit after serveUntil returned: %v, want %v", err, serve.ErrClosed)
	}
	if _, err := http.Get(url); err == nil {
		t.Error("the listener still accepts after serveUntil returned")
	}
}

// TestRemovedPolicyRefusesToStart: -policy reaches the engine through the
// gateway's options, as main passes it, and a name the engine does not
// serve — here the retired DAG-aware policy — must stop the gateway from
// being built, naming the policies it does serve, rather than fall back
// to a default.
func TestRemovedPolicyRefusesToStart(t *testing.T) {
	env, err := dscs.NewEnvironment(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dag-aware", "dag"} {
		gw, err := gateway.NewWithOptions(env.Runners, "DSCS-Serverless", "Baseline (CPU)",
			serve.Options{Workers: 1, PolicyName: name})
		if err == nil {
			gw.Close()
			t.Errorf("-policy %s: gateway built", name)
			continue
		}
		if !strings.Contains(err.Error(), "fcfs, criticality") {
			t.Errorf("-policy %s: error %q does not name fcfs, criticality", name, err)
		}
	}
}

// TestServerTimeouts: the server bounds both a slow client's headers and an
// idle keep-alive connection, so neither holds a connection forever.
func TestServerTimeouts(t *testing.T) {
	srv := newServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v: both must be positive", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
}

// TestHedgeFactorFlagRejectsNonFinite: -hedge-factor parses through
// strconv, which reads "NaN" and "Inf" as floats; the flag must refuse
// them, and a factor below 1, before the engine is ever built.
func TestHedgeFactorFlagRejectsNonFinite(t *testing.T) {
	for arg, ok := range map[string]bool{
		"NaN": false, "Inf": false, "+Inf": false, "-Inf": false, "x": false,
		"0.5": false, "0": true, "1.5": true,
	} {
		var f finiteFloat
		fs := flag.NewFlagSet("dscsgate", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Var(&f, "hedge-factor", "")
		if err := fs.Parse([]string{"-hedge-factor", arg}); (err == nil) != ok {
			t.Errorf("-hedge-factor %s: err = %v, want accepted = %v", arg, err, ok)
		}
	}
}

// TestElasticFlagsNeedMaxWorkers: only -max-workers arms the lifecycle,
// so each other elastic flag alone is an error; with it each is accepted,
// and no elastic flag at all keeps fixed pools.
func TestElasticFlagsNeedMaxWorkers(t *testing.T) {
	type flags struct {
		minWorkers, maxWorkers int
		coldStart, idleLinger  time.Duration
		prewarm                bool
	}
	config := func(f flags) (*scale.Config, error) {
		return elasticConfig(f.minWorkers, f.maxWorkers, f.coldStart, f.idleLinger, f.prewarm)
	}
	for name, f := range map[string]flags{
		"-min-workers": {minWorkers: 1},
		"-cold-start":  {coldStart: time.Second},
		"-idle-linger": {idleLinger: time.Second},
		"-prewarm":     {prewarm: true},
	} {
		if _, err := config(f); err == nil {
			t.Errorf("%s without -max-workers accepted", name)
		}
		f.maxWorkers = 4
		if cfg, err := config(f); err != nil || cfg == nil || cfg.Max != 4 {
			t.Errorf("%s with -max-workers 4: %+v, %v", name, cfg, err)
		}
	}
	if cfg, _ := config(flags{maxWorkers: 4, prewarm: true}); cfg.Mode != scale.ModePredictive {
		t.Errorf("-prewarm built %v mode, want predictive", cfg.Mode)
	}
	if cfg, err := config(flags{}); cfg != nil || err != nil {
		t.Errorf("no elastic flags: %+v, %v; want fixed pools", cfg, err)
	}
}
