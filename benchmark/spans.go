package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval. ID is shared by the spans of one request
// (concurrency 1) or one burst; Parent indexes the enclosing span in the
// written file, -1 for a root.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	ID      uint64 `json:"id"`
	Parent  int    `json:"parent"`
}

// recorder keeps spans in memory until the run ends. The benchmark records
// them from its own files, around its calls into each layer; nothing inside
// the module under test knows about it.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// cur is the id new spans are stamped with: the driver sets it to the
	// request sequence number (concurrency 1) or the burst number.
	cur atomic.Uint64
	seq atomic.Uint64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(name string, start, end time.Time) {
	s := span{Name: name, StartNs: start.Sub(r.t0).Nanoseconds(), EndNs: end.Sub(r.t0).Nanoseconds(), ID: r.cur.Load()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and clears the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// link fills in Parent: within one ID, a span's parent is the tightest span
// that encloses it on the timeline (for a burst that is burst → submit and
// burst → faas.invoke; at concurrency 1, client.request → gateway.handler
// → faas.invoke).
func link(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.StartNs != b.StartNs {
			return a.StartNs < b.StartNs
		}
		return a.EndNs > b.EndNs
	})
	var open []int
	for i := range spans {
		for len(open) > 0 {
			top := spans[open[len(open)-1]]
			if top.ID == spans[i].ID && top.EndNs >= spans[i].EndNs {
				break
			}
			open = open[:len(open)-1]
		}
		spans[i].Parent = -1
		if len(open) > 0 {
			spans[i].Parent = open[len(open)-1]
		}
		if spans[i].Name != "submit" && spans[i].Name != "faas.invoke" {
			open = append(open, i) // leaves never parent anything
		}
	}
}

// spanStats is what the traced run reads back from a set of spans: how many
// of each name there were and their mean duration in microseconds.
type spanStats struct {
	count  map[string]int
	meanUS map[string]float64
}

func summarise(spans []span) spanStats {
	st := spanStats{map[string]int{}, map[string]float64{}}
	for _, s := range spans {
		st.count[s.Name]++
		st.meanUS[s.Name] += float64(s.EndNs-s.StartNs) / 1e3
	}
	for name, n := range st.count {
		st.meanUS[name] /= float64(n)
	}
	return st
}

// writeSpans stores the spans under dir (benchmark/out when run from the
// repository) as one JSON array.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
