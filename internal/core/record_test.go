package core

import (
	"bytes"
	"context"
	"testing"

	"witrack/internal/fmcw"
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
// device kinds: a trace recorded for a different deployment — one
// antenna more than the device's array, or a radio whose bin count or
// sweep shape differs from the device's — is refused up front instead
// of streaming misassigned frames, garbage bins, or a worker panic.
func TestStreamFromRejectsAntennaMismatch(t *testing.T) {
	cfg := DefaultConfig()
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewMultiDevice(cfg, cfg.Subject)
	if err != nil {
		t.Fatal(err)
	}
	// foreign returns the header a device on cfg's array with an edited
	// radio would record under.
	foreign := func(edit func(*fmcw.Config), sweeps bool) trace.Header {
		c := cfg
		edit(&c.Radio)
		d, err := NewDevice(c)
		if err != nil {
			t.Fatal(err)
		}
		if sweeps {
			return d.SweepTraceHeader()
		}
		return d.TraceHeader()
	}
	antennas := dev.TraceHeader()
	antennas.NumRx++
	for name, h := range map[string]trace.Header{
		"antennas":          antennas,
		"bins":              foreign(func(r *fmcw.Config) { r.MaxRange = 11 }, false),
		"sweeps per frame":  foreign(func(r *fmcw.Config) { r.SweepsPerFrame = 4 }, true),
		"samples per sweep": foreign(func(r *fmcw.Config) { r.SampleRate, r.MaxRange = 128e3, 11 }, true),
	} {
		t.Run(name, func(t *testing.T) {
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
				t.Fatal("Device.StreamFrom accepted a trace recorded for another deployment")
			}
			if _, err := multi.StreamFrom(context.Background(), source()); err == nil {
				t.Fatal("MultiDevice.StreamFrom accepted a trace recorded for another deployment")
			}
		})
	}
}
