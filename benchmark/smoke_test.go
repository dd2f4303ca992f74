package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// readContract reads BENCHMARK.json as the driver does, after checking that
// it is what this package would generate.
func readContract(t *testing.T) contractDoc {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var generated bytes.Buffer
	if err := writeContract(&generated); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, generated.Bytes()) {
		t.Fatal("BENCHMARK.json differs from this package's declarations; regenerate it with `go run . -contract > ../BENCHMARK.json`")
	}
	var c contractDoc
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestContractIsWellFormed(t *testing.T) {
	c := readContract(t)
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(c.Workloads) < 2 || len(c.Workloads) > 8 || c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("%d workloads, run_seconds %d", len(c.Workloads), c.RunSeconds)
	}
	for _, w := range c.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range c.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is malformed", m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range c.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("%s has a larger bound than setup_s", o.Name)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(c.PerLayer) < 1 || len(c.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(c.PerLayer))
	}
	for _, m := range c.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
	}
}

// parseResult reads the driver contract's last line back.
func parseResult(t *testing.T, out []byte) (correct bool, attempted, failed int, metrics map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64
			Unit  string
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if res.Correct == nil || res.Attempted == nil || res.Failed == nil || res.Metrics == nil {
		t.Fatalf("result object lacks a key: %s", lines[len(lines)-1])
	}
	return *res.Correct, *res.Attempted, *res.Failed, res.Metrics
}

// Every declared workload, run for one granule, emits every end-to-end
// metric exactly once with its declared unit, and every operation verifies.
func TestSmokeGatedRuns(t *testing.T) {
	c := readContract(t)
	for _, w := range c.Workloads {
		spec, ok := findWorkload(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
		rep, err := runGated(spec, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := printResult(&out, &rep.tally, rep.e2e); err != nil {
			t.Fatal(err)
		}
		correct, attempted, failed, metrics := parseResult(t, out.Bytes())
		if !correct || attempted < 1 || failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d (%s)", w.Name, correct, attempted, failed, rep.tally.firstFailure)
		}
		if len(rep.e2e) != len(c.EndToEnd) || len(metrics) != len(c.EndToEnd) {
			t.Errorf("%s: %d metrics emitted (%d distinct), %d declared", w.Name, len(rep.e2e), len(metrics), len(c.EndToEnd))
		}
		for _, d := range c.EndToEnd {
			m, ok := metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s not emitted", w.Name, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s: %s has unit %q, declared %q", w.Name, d.Name, m.Unit, d.Unit)
			case m.Value <= 0:
				t.Errorf("%s: %s = %v; end-to-end metrics are never 0", w.Name, d.Name, m.Value)
			}
		}
		if metrics["ok_share"].Value != 1 {
			t.Errorf("%s: ok_share = %v", w.Name, metrics["ok_share"].Value)
		}
	}
}

// The traced run emits every per-layer metric exactly once, whatever the
// workload, and writes its spans.
func TestSmokeTracedRun(t *testing.T) {
	c := readContract(t)
	spec, _ := findWorkload("engine-closed")
	dir := t.TempDir()
	rep, err := runTraced(spec, 1, 0.5, dir)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := printResult(&out, &rep.tally, rep.layer); err != nil {
		t.Fatal(err)
	}
	correct, _, failed, metrics := parseResult(t, out.Bytes())
	if !correct || failed != 0 {
		t.Errorf("correct=%v failed=%d (%s)", correct, failed, rep.tally.firstFailure)
	}
	if len(rep.layer) != len(c.PerLayer) || len(metrics) != len(c.PerLayer) {
		t.Errorf("%d metrics emitted (%d distinct), %d declared", len(rep.layer), len(metrics), len(c.PerLayer))
	}
	for _, d := range c.PerLayer {
		if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: emitted=%v unit %q, declared %q", d.Name, ok, m.Unit, d.Unit)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 3 {
		t.Errorf("span files written: %d (%v), want the ladder and the two burst phases", len(files), err)
	}
}
