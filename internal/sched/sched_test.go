package sched

import (
	"strings"
	"testing"
)

func TestTelemetry(t *testing.T) {
	tel := NewTelemetry()
	tel.Inc("requests_total", 1)
	tel.Inc("requests_total", 2)
	tel.Set("queue_depth", 7)
	if tel.Counter("requests_total") != 3 {
		t.Errorf("counter = %v", tel.Counter("requests_total"))
	}
	if tel.Gauge("queue_depth") != 7 {
		t.Errorf("gauge = %v", tel.Gauge("queue_depth"))
	}
	out := tel.Render()
	if !strings.Contains(out, "requests_total 3") || !strings.Contains(out, "queue_depth 7") {
		t.Errorf("render missing metrics:\n%s", out)
	}
}
