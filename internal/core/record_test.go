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

// compactSweepConfig is a SlowSynth deployment small enough that the
// time-domain path is cheap in tests: a reduced sample rate shrinks a
// sweep to 320 samples (FFT size 512) while the beat spectrum of the
// trimmed 11 m range stays far inside Nyquist.
func compactSweepConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.SlowSynth = true
	cfg.Radio.SampleRate = 128e3
	cfg.Radio.MaxRange = 11
	cfg.Radio.SweepsPerFrame = 4
	return cfg
}

// TestSweepTraceRoundTrip closes the sweep-domain parity chain: a
// SlowSynth run is captured as raw sweeps (RecordTo under a
// SweepTraceHeader), replayed through the full window + RFFT +
// averaging path on a fresh device, and must reproduce the live run bit
// for bit.
func TestSweepTraceRoundTrip(t *testing.T) {
	cfg := compactSweepConfig(33)
	traj := motion.NewRandomWalk(motion.DefaultWalkConfig(
		motion.Region{XMin: -2, XMax: 2, YMin: 3, YMax: 6},
		cfg.Subject.CenterHeight(), 0.5, cfg.Seed+100))

	liveDev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := goldenHash(drain(liveDev.Stream(context.Background(), traj)))

	recDev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, recDev.SweepTraceHeader())
	if err != nil {
		t.Fatal(err)
	}
	frames, err := recDev.RecordTo(tw, traj)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if frames == 0 {
		t.Fatal("sweep recording captured no frames")
	}

	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := NewTraceSource(r)
	ch, err := dev.StreamFrom(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenHash(drain(ch)); got != live {
		t.Fatalf("sweep-trace replay diverged from the live run: digest %#x, want %#x", got, live)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordSweepsRequiresSlowSynth pins the fast-path refusal: the
// spectral-synthesis path never materializes time-domain sweeps, so
// recording into a sweep-domain writer must fail loudly instead of
// writing an empty trace — on both device kinds.
func TestRecordSweepsRequiresSlowSynth(t *testing.T) {
	cfg := compactSweepConfig(34)
	cfg.SlowSynth = false
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traj := motion.NewRandomWalk(motion.DefaultWalkConfig(
		motion.Region{XMin: -2, XMax: 2, YMin: 3, YMax: 6},
		cfg.Subject.CenterHeight(), 0.2, cfg.Seed+100))
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, dev.SweepTraceHeader())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.RecordTo(tw, traj); err == nil {
		t.Fatal("RecordTo accepted a sweep-domain writer on a fast-synthesis device")
	}
	multi, err := NewMultiDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := multi.RecordTo(tw, traj); err == nil {
		t.Fatal("MultiDevice.RecordTo accepted a sweep-domain writer on a fast-synthesis device")
	}
}
