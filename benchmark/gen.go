package main

import (
	"fmt"
	"strings"
	"time"

	"dscs"
	"dscs/internal/sim"
	"dscs/internal/trace"
)

// rng is splitmix64: the benchmark's own generator, so the inputs it makes
// from a seed do not depend on anything in the module under test.
type rng uint64

func newRNG(seed uint64, stream ...uint64) *rng {
	r := rng(seed*0x9E3779B97F4A7C15 + 0x1234567)
	for _, s := range stream {
		r = rng(r.next() ^ (s+1)*0xBF58476D1CE4E5B9)
	}
	return &r
}

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// request is one live invocation: an index into the Table 1 suite and the
// cold flag. Quantile is always 0.5 and batch always 1.
type request struct {
	app  uint8
	cold bool
}

const apps = 8 // the Table 1 suite

// genBlock makes block number blk of n requests (n a multiple of 128): every
// block holds each app exactly n/8 times and exactly n/16 cold requests, so
// the mix is the same for every seed and only the order — which decides
// what coalesces with what — is drawn from the seed.
func genBlock(seed uint64, blk, n int) []request {
	if n%(apps*16) != 0 {
		panic(fmt.Sprintf("genBlock: n=%d is not a multiple of %d", n, apps*16))
	}
	out := make([]request, n)
	for i := range out {
		row := i / apps
		out[i] = request{app: uint8(i % apps), cold: row%16 == 0}
	}
	r := newRNG(seed, 1, uint64(blk))
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Sim inputs. Every replay kind gets simReplays seeded inputs, each cut to a
// fixed size so that every seed replays the same amount of work and only the
// arrival pattern and the benchmarks drawn differ. The sizes put one replay
// at roughly 30–150 ms of host time.
const (
	simReplays     = 4
	rackRequests   = 85000 // of ~90 700 generated
	hybridRequests = 13500 // of ~14 400 generated
	etlWorkflows   = 20    // 6 stages each
	mlWorkflows    = 20    // 3 stages each
)

// simSeed derives the seed of replay k of a kind (0 rack, 1 hybrid,
// 2 workflow) — for the trace generator and, offset by simKinds, for the
// replay's own jitter.
func simSeed(seed uint64, kind, k int) uint64 {
	return newRNG(seed, 2, uint64(kind), uint64(k)).next() >> 1
}

// cut keeps the first n arrivals of a generated trace.
func cut(tr *trace.Trace, n int) (*trace.Trace, error) {
	if len(tr.Requests) < n {
		return nil, fmt.Errorf("generated trace has %d requests, want at least %d", len(tr.Requests), n)
	}
	tr.Requests = tr.Requests[:n]
	return tr, nil
}

func rackTrace(seed uint64, k int) (*trace.Trace, error) {
	cfg := trace.PaperTrace()
	cfg.Duration = 3 * time.Minute
	cfg.BurstEvery = time.Minute
	cfg.BurstLength = 12 * time.Second
	tr, err := trace.Generate(cfg, dscs.Suite(), sim.NewRNG(simSeed(seed, 0, k)))
	if err != nil {
		return nil, err
	}
	return cut(tr, rackRequests)
}

func hybridTrace(seed uint64, k int) (*trace.Trace, error) {
	cfg := trace.BurstyConfig{
		Duration: 3 * time.Minute, BaseRate: 60, BurstRate: 100,
		BurstEvery: 30 * time.Second, BurstLength: 15 * time.Second,
	}
	tr, err := trace.Generate(cfg, dscs.Suite(), sim.NewRNG(simSeed(seed, 1, k)))
	if err != nil {
		return nil, err
	}
	return cut(tr, hybridRequests)
}

// hybridFaults is the one pool-down/up pair of a hybrid replay: the DSCS
// tier browns out for 20 s. Replay k's outage starts just after the start of
// a burst (62 s, 92 s, 122 s, 62 s) plus up to 4 s drawn from the seed; an
// offset drawn from the whole trace would decide whether the outage meets a
// burst at all, and the tail latency with it.
func hybridFaults(seed uint64, k int) ([]trace.FaultEvent, error) {
	at := 62 + 30*(k%3) + newRNG(seed, 3, uint64(k)).intn(5)
	return trace.ParseFaultScript(fmt.Sprintf("%ds:pool-down:dscs;%ds:pool-up:dscs", at, at+20))
}

// workflowTrace keeps the first etlWorkflows scatter-gather graphs and the
// first mlWorkflows chains of a generated arrival sequence, in arrival order.
func workflowTrace(seed uint64, k int) (*trace.WorkflowTrace, error) {
	const fanOut = 4
	tr, err := trace.GenerateWorkflows(trace.WorkflowConfig{
		Duration: 2 * time.Minute, Rate: 0.8, ETLShare: 0.5, FanOut: fanOut,
	}, dscs.Suite(), sim.NewRNG(simSeed(seed, 2, k)))
	if err != nil {
		return nil, err
	}
	kept := tr.Workflows[:0]
	etl, ml := 0, 0
	for _, w := range tr.Workflows {
		switch {
		case len(w.Spec.Stages) == fanOut+2 && etl < etlWorkflows:
			etl++
		case len(w.Spec.Stages) == 3 && ml < mlWorkflows:
			ml++
		default:
			continue
		}
		kept = append(kept, w)
	}
	if etl < etlWorkflows || ml < mlWorkflows {
		return nil, fmt.Errorf("generated workflow trace has %d ETL and %d ML graphs, want %d and %d", etl, ml, etlWorkflows, mlWorkflows)
	}
	tr.Workflows = kept
	return tr, nil
}

// chainSpec is the 3-stage workflow the traced run posts: three suite apps
// picked from the seed, in the offset:id=benchmark:deps text format.
func chainSpec(seed uint64) string {
	r := newRNG(seed, 4)
	suite := dscs.Suite()
	var sb strings.Builder
	prev := ""
	for i, id := range []string{"pre", "infer", "post"} {
		fmt.Fprintf(&sb, "0s:%s=%s:%s", id, suite[r.intn(len(suite))].Slug, prev)
		if i < 2 {
			sb.WriteString(";")
		}
		prev = id
	}
	return sb.String()
}
