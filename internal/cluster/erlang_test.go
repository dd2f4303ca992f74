package cluster

import (
	"flag"
	"math"
	"testing"
	"time"

	"dscs/internal/sim"
	"dscs/internal/trace"
	"dscs/internal/workload"
)

var erlangHeavy = flag.Bool("erlang-heavy", false, "also check the Erlang C oracle at utilisation 0.9, on longer traces")

// erlangService is the oracle's mean service time.
const erlangService = 10 * time.Millisecond

// erlangCWait is the M/M/c mean queue wait at utilisation rho: Erlang C's
// probability that an arrival waits, times the mean wait of one that does.
func erlangCWait(c int, rho float64, service time.Duration) float64 {
	a := rho * float64(c) // offered load, in Erlangs
	term, sum := 1.0, 0.0
	for k := 0; k < c; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	tail := term / (1 - rho) // a^c / c! / (1 - rho)
	return tail / (sum + tail) * float64(service) / (float64(c) * (1 - rho))
}

// simMeanWait replays about n Poisson arrivals through Run's rack (c
// servers, FCFS, no batching, exponential service) and returns the mean
// queue wait: mean latency less mean service, in nanoseconds.
func simMeanWait(t *testing.T, c int, rho float64, n int, seed uint64) float64 {
	t.Helper()
	rate := rho * float64(c) / erlangService.Seconds()
	tr, err := trace.Generate(trace.BurstyConfig{
		Duration: time.Duration(float64(n) / rate * float64(time.Second)),
		BaseRate: rate, BurstRate: rate, BurstEvery: time.Minute, BurstLength: time.Second,
	}, workload.Suite(), sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	var service float64
	st, err := Run(tr, Config{
		Instances: c, QueueDepth: 1 << 20, MaxBatch: 1,
		Service: func(_ string, rng *sim.RNG) time.Duration {
			s := rng.Exp(erlangService)
			service += float64(s)
			return s
		},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) < n*9/10 {
		t.Fatalf("trace drew %d arrivals, want about %d", len(tr.Requests), n)
	}
	if st.Completed != len(tr.Requests) {
		t.Fatalf("completed %d of %d requests", st.Completed, len(tr.Requests))
	}
	return float64(st.LatencySample.Mean()) - service/float64(st.Completed)
}

// studentT995 is Student's t at 0.995 for 1 to 9 degrees of freedom: a
// 99 % two-sided interval's half-width in standard errors.
var studentT995 = [...]float64{63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250}

// checkErlangC replays seeds independent runs of about n requests per
// cell and requires Erlang C's mean wait to lie inside the 99 % confidence
// interval of the seeds' mean, taken from their spread.
func checkErlangC(t *testing.T, rho float64, seeds, n int) {
	for _, c := range []int{1, 8} {
		waits := make([]float64, seeds)
		mean := 0.0
		for i := range waits {
			waits[i] = simMeanWait(t, c, rho, n, uint64(i+1))
			mean += waits[i] / float64(seeds)
		}
		ss := 0.0
		for _, w := range waits {
			ss += (w - mean) * (w - mean)
		}
		half := studentT995[seeds-2] * math.Sqrt(ss/float64(seeds-1)/float64(seeds))
		want := erlangCWait(c, rho, erlangService)
		t.Logf("c=%d rho=%.1f: sim mean wait %.3f ms ± %.3f ms (99%%, %d seeds x %d), Erlang C %.3f ms",
			c, rho, mean/1e6, half/1e6, seeds, n, want/1e6)
		if math.Abs(mean-want) > half {
			t.Errorf("c=%d rho=%.1f: sim mean wait %.3f ms, Erlang C %.3f ms outside the 99%% interval ±%.3f ms",
				c, rho, mean/1e6, want/1e6, half/1e6)
		}
	}
}

// TestErlangCOracle checks Run's rack against queueing theory, which no
// part of the engine or the sim shares: Poisson arrivals, exponential
// service, one FCFS pool of c servers and no batching make an M/M/c queue,
// whose mean wait is Erlang C's. Utilisation 0.9 relaxes slowly and needs
// longer traces; -erlang-heavy runs it.
func TestErlangCOracle(t *testing.T) {
	for _, rho := range []float64{0.5, 0.7} {
		checkErlangC(t, rho, 8, 200_000)
	}
	if *erlangHeavy {
		checkErlangC(t, 0.9, 8, 1_000_000)
	}
}
