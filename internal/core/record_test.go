package core

import (
	"bytes"
	"context"
	"testing"

	"witrack/internal/motion"
	"witrack/internal/trace"
)

// shortWalk is a small fixed-seed workload for record/replay tests.
func shortWalk(t *testing.T, cfg Config) motion.Trajectory {
	t.Helper()
	return motion.NewRandomWalk(motion.DefaultWalkConfig(
		motion.Region{XMin: -3, XMax: 3, YMin: 3, YMax: 9},
		cfg.Subject.CenterHeight(), 6, cfg.Seed+100))
}

// drain collects every sample from a stream.
func drain(ch <-chan Sample) []Sample {
	var out []Sample
	for s := range ch {
		out = append(out, s)
	}
	return out
}

// TestStreamFromRejectsAntennaMismatch pins the shape check on both
// device kinds: a source with one antenna more than the device's array
// is refused up front instead of streaming misassigned frames.
func TestStreamFromRejectsAntennaMismatch(t *testing.T) {
	cfg := DefaultConfig()
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := dev.TraceHeader()
	h.NumRx++
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	source := func() FrameSource {
		tr, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return NewTraceSource(tr)
	}
	if _, err := dev.StreamFrom(context.Background(), source()); err == nil {
		t.Fatal("Device.StreamFrom accepted a source with the wrong antenna count")
	}
	multi, err := NewMultiDevice(cfg, cfg.Subject)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := multi.StreamFrom(context.Background(), source()); err == nil {
		t.Fatal("MultiDevice.StreamFrom accepted a source with the wrong antenna count")
	}
}
