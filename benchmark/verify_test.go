package main

import (
	"errors"
	"net/http"
	"testing"

	"dscs"
)

// Every way a live response can be wrong must cost ok_share; an untouched
// response must not.
func TestVerifierCatchesTampering(t *testing.T) {
	const seed = 3
	env, err := dscs.NewEnvironment(seed)
	if err != nil {
		t.Fatal(err)
	}
	req := request{app: 2, cold: true}
	res, err := env.Runners[targetPlatform].Invoke(env.Suite[req.app], dscs.InvokeOptions{Quantile: 0.5, Cold: true})
	if err != nil {
		t.Fatal(err)
	}
	good := observeInvocation(req, dscs.ServedInvocation{Result: res, Platform: targetPlatform, BatchRequests: 1, BatchSize: 1}, nil)

	cases := []struct {
		name   string
		tamper func(o *observation)
		moved  bool
		ok     bool
	}{
		{"untouched", func(*observation) {}, false, true},
		{"total_ms off by 2 %", func(o *observation) { o.totalMS *= 1.02; o.partsMS *= 1.02 }, false, false},
		{"total_ms off by 0.5 %", func(o *observation) { o.totalMS *= 1.005; o.partsMS *= 1.005 }, false, true},
		{"wrong platform", func(o *observation) { o.platform = cpuPlatform }, false, false},
		{"unknown platform, balancer on", func(o *observation) { o.platform = "TPU" }, true, false},
		{"moved, but the total is the target's", func(o *observation) { o.platform = cpuPlatform }, true, false},
		{"breakdown does not sum", func(o *observation) { o.partsMS -= 1 }, false, false},
		{"HTTP 429", func(o *observation) { o.status = http.StatusTooManyRequests }, false, false},
		{"HTTP 500", func(o *observation) { o.status = http.StatusInternalServerError }, false, false},
		{"submit error", func(o *observation) { o.err = errors.New("serve: queue full") }, false, false},
		{"batch_size 0", func(o *observation) { o.batchSize = 0 }, false, false},
		{"wrong batch_size", func(o *observation) { o.batchSize = 4 }, false, false},
	}
	for _, c := range cases {
		v, err := newVerifier(seed, targetPlatform, c.moved)
		if err != nil {
			t.Fatal(err)
		}
		var tl tally
		tl.pass() // an earlier, good request
		o := good
		c.tamper(&o)
		v.verify(o, &tl)
		if got := tl.okShare() == 1; got != c.ok {
			t.Errorf("%s: ok_share = %v (first failure %q)", c.name, tl.okShare(), tl.firstFailure)
		}
	}
}

func TestObserveHTTPReadsTheGatewayBody(t *testing.T) {
	body := []byte(`{"application":"chatbot","platform":"DSCS-Serverless","total_ms":10,"stack_ms":1,
		"remote_io_ms":2,"compute_ms":3,"device_io_ms":1.5,"driver_ms":0.5,"cold_start_ms":1,"notify_ms":1,"batch_size":2}`)
	o := observeHTTP(request{}, http.StatusOK, body)
	if o.err != nil || o.platform != targetPlatform || o.totalMS != 10 || o.partsMS != 10 || o.batchSize != 2 {
		t.Errorf("observation %+v", o)
	}
	if o := observeHTTP(request{}, http.StatusOK, []byte("queue full")); o.err == nil {
		t.Error("a body that is not JSON was accepted")
	}
}

// The end-of-run invariants are operations too: a conservation violation or
// a broken sim ledger lowers ok_share.
func TestInvariantViolationsLowerOKShare(t *testing.T) {
	var tl tally
	tl.pass()
	tl.expect(nil, "engine conservation")
	if tl.okShare() != 1 {
		t.Fatalf("ok_share %v after passing checks", tl.okShare())
	}
	tl.expect(errors.New("submitted 10 != completed 9 + queued 0"), "engine conservation")
	if tl.okShare() >= 1 || tl.firstFailure == "" {
		t.Errorf("a conservation violation left ok_share at %v", tl.okShare())
	}

	var sims tally
	checkLedger(1, 0, simOutcome{admitted: 100, completed: 90, dropped: 5, stranded: 5}, nil, &sims)
	if sims.okShare() != 1 {
		t.Errorf("a balanced ledger failed: %s", sims.firstFailure)
	}
	checkLedger(1, 0, simOutcome{admitted: 100, completed: 90, dropped: 5, stranded: 4}, nil, &sims)
	checkLedger(2, 0, simOutcome{}, errors.New("incomplete config"), &sims)
	if sims.ok != 1 || sims.attempted != 3 {
		t.Errorf("leaking ledger and failed replay: %d of %d passed", sims.ok, sims.attempted)
	}
}
