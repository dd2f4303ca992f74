package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runAA runs the suite as two interleaved sets of n runs of the same code
// (A1 B1 A2 B2 …, run i of either set on seed i, each run its own process,
// as the driver does it) and prints, per workload and end-to-end metric,
// both medians and quartiles, each set's spread (the distance between its
// quartiles as a share of its median), the gap between the medians in the
// direction that counts as worse, and the bound. A second table puts the
// spread of the raw wall-clock numbers beside the normalised ones for the
// same runs.
func runAA(out io.Writer, selected []workloadSpec, n int, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# A/A: two interleaved sets of %d runs, %g s measured per run, seeds 1..%d\n\n", n, seconds, n)
	fmt.Fprintln(out, "| workload | metric | median A | quartiles A | median B | quartiles B | spread A | spread B | gap B vs A | bound | verdict |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|---|---|")
	type series map[string][]float64 // metric name → one value per run
	var rawRows []string
	bad := 0
	for _, w := range selected {
		sets := [2]series{{}, {}}
		for i := 1; i <= n; i++ {
			for s := range sets {
				vals, err := runChild(exe, w.name, uint64(i), seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, i, err)
				}
				for name, v := range vals {
					sets[s][name] = append(sets[s][name], v)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			qa, qb := quartiles(a), quartiles(b)
			gap := (qb[1] - qa[1]) / qa[1]
			if d.better == "higher" {
				gap = -gap
			}
			spreadA, spreadB := (qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1]
			verdict := "ok"
			// setup_s is gated on the gap between medians only; its
			// spread is reported, not bounded.
			if gap > d.bound || (d.name != "setup_s" && math.Max(spreadA, spreadB) > d.bound) {
				verdict = "OVER"
				bad++
			}
			fmt.Fprintf(out, "| %s | %s | %.6g | %.6g – %.6g | %.6g | %.6g – %.6g | %.2f%% | %.2f%% | %+.2f%% | %.1f%% | %s |\n",
				w.name, d.name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
				100*spreadA, 100*spreadB, 100*gap, 100*d.bound, verdict)
		}
		for _, pair := range [][2]string{
			{"driver.raw_throughput_rps", "norm_throughput_rps"},
			{"driver.raw_latency_p50_us", "norm_latency_p50_us"},
		} {
			raw := append(append([]float64(nil), sets[0][pair[0]]...), sets[1][pair[0]]...)
			norm := append(append([]float64(nil), sets[0][pair[1]]...), sets[1][pair[1]]...)
			qr, qn := quartiles(raw), quartiles(norm)
			rawRows = append(rawRows, fmt.Sprintf("| %s | %s | %.2f%% | %.2f%% | %s | %.2f%% | %.2f%% |",
				w.name, pair[0], 100*(qr[2]-qr[0])/qr[1], 100*(maxOf(raw)-minOf(raw))/qr[1],
				pair[1], 100*(qn[2]-qn[0])/qn[1], 100*(maxOf(norm)-minOf(norm))/qn[1]))
		}
	}
	fmt.Fprintf(out, "\n## Raw against normalised, all %d runs of each workload\n\n", 2*n)
	fmt.Fprintln(out, "| workload | raw metric | IQR/median | range/median | normalised metric | IQR/median | range/median |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|")
	for _, row := range rawRows {
		fmt.Fprintln(out, row)
	}
	if bad > 0 {
		return fmt.Errorf("%d workload × metric pairs are over their bound", bad)
	}
	return nil
}

// runChild runs one gated run in a child process and reads back every
// "workload name value unit" line it printed.
func runChild(exe, workload string, seed uint64, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w; it printed:\n%s", err, stdout)
	}
	vals := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 || f[0] != workload {
			continue
		}
		if vals[f[1]], err = strconv.ParseFloat(f[2], 64); err != nil {
			return nil, err
		}
	}
	return vals, sc.Err()
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// quartiles returns the three cut points of v as Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method) gives them,
// which is what the driver computes spreads from.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
