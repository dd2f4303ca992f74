package main

import (
	"encoding/json"
	"io"
)

// runSeconds is the measured phase the driver asks for (BENCHMARK.json's
// run_seconds) and the default of -seconds.
const runSeconds = 8

// contractDoc is BENCHMARK.json: exactly the keys the driver reads.
type contractDoc struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []e2eJSON      `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// writeContract prints BENCHMARK.json from the declarations in this
// package, so the file at the repository root cannot drift from what the
// program emits: `go run . -contract > ../BENCHMARK.json`.
func writeContract(out io.Writer) error {
	doc := contractDoc{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{d.name, d.unit, d.better})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}
