package net

import (
	"strings"
	"testing"
)

func TestLoadReportCheck(t *testing.T) {
	healthy := LoadReport{
		Mode: "open", Conns: 64, Rate: 20000, Duration: 3,
		Sent: 1000, Completed: 600, Shed: 390, Deadlined: 10,
		ThroughputRPS: 200,
		P50Ms:         0.5, P99Ms: 2.0, P999Ms: 4.0, MeanMs: 0.6, MaxMs: 5.0,
	}
	if err := healthy.Check(); err != nil {
		t.Fatalf("healthy report rejected: %v", err)
	}

	// All-shed is still valid (no completions, so no percentile check).
	allShed := LoadReport{Mode: "open", Sent: 100, Shed: 100}
	if err := allShed.Check(); err != nil {
		t.Fatalf("all-shed report rejected: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func(*LoadReport)
		wantErr string
	}{
		{"empty run", func(r *LoadReport) { r.Sent = 0 }, "no requests sent"},
		{"unaccounted outcomes", func(r *LoadReport) { r.Shed = 0 }, "do not account"},
		{"hung requests", func(r *LoadReport) { r.Shed -= 2; r.Hung = 2 }, "hung"},
		{"failed requests", func(r *LoadReport) { r.Shed--; r.Failed = 1 }, "failed"},
		{"zero p50 with completions", func(r *LoadReport) { r.P50Ms = 0 }, "p50"},
		{"inverted percentiles", func(r *LoadReport) { r.P99Ms = 9 }, "out of order"},
		{"retries over budget", func(r *LoadReport) { r.RetryBudget = 2; r.Retries = 129 }, "exceed the budget"},
	}
	for _, c := range cases {
		rep := healthy
		c.mutate(&rep)
		err := rep.Check()
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.wantErr)
		}
	}
}
