package main

import (
	"encoding/json"
	"testing"
)

// TestSetFixLatency pins which runs report a fix latency: a paced run
// with lag samples reports their percentiles; an unpaced run, whose lag
// is measured against a frame clock it runs ahead of, and a run without
// samples leave every fix-latency field out of the JSON.
func TestSetFixLatency(t *testing.T) {
	lag := []float64{-900, 4, 1, 3, 2, 8, 5, 7, 6, 9}
	for _, c := range []struct {
		name     string
		paced    bool
		lag      []float64
		p50, p99 float64
		samples  int
	}{
		{"paced", true, lag, 4, 9, 10},
		{"unpaced", false, lag, 0, 0, 0},
		{"no samples", true, nil, 0, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			tm := Timing{Paced: c.paced}
			tm.setFixLatency(c.lag)
			data, err := json.Marshal(&tm)
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]any
			if err := json.Unmarshal(data, &fields); err != nil {
				t.Fatal(err)
			}
			for key, want := range map[string]float64{
				"fix_latency_ms_p50": c.p50,
				"fix_latency_ms_p99": c.p99,
				"latency_samples":    float64(c.samples),
			} {
				got, ok := fields[key]
				if c.samples == 0 {
					if ok {
						t.Errorf("%s = %v, want it left out", key, got)
					}
					continue
				}
				if !ok || got != want {
					t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
				}
			}
		})
	}
}
