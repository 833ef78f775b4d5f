// Package core wires the full WiTrack system together: the RF scene and
// body models synthesize per-antenna FMCW frames; one track.Tracker per
// receive antenna estimates round-trip distances; the locator intersects
// the resulting ellipsoids into a 3D trajectory (paper §3 overview).
package core

import (
	"context"
	"time"

	"witrack/internal/body"
	"witrack/internal/dsp"
	"witrack/internal/fmcw"
	"witrack/internal/geom"
	"witrack/internal/motion"
	"witrack/internal/rf"
	"witrack/internal/track"
)

// Config assembles a simulated WiTrack deployment.
type Config struct {
	Radio   fmcw.Config
	Array   geom.Array
	Scene   *rf.Scene
	Subject body.Subject
	// Seed drives all simulation randomness (noise, body-surface jitter).
	Seed int64
	// SlowSynth switches frame generation to the full time-domain path
	// (identical statistics, ~100x slower; used for validation runs).
	SlowSynth bool
	// Precision is ignored: the sweep path always runs in float64.
	//
	// Deprecated: fmcw.Precision admits a single value, so no precision
	// can be chosen.
	Precision fmcw.Precision
	// TrackerOverride, when non-nil, customizes the per-antenna tracker
	// configuration after defaults are applied.
	TrackerOverride func(*track.Config)
}

// DefaultConfig returns a through-wall deployment with the paper's
// radio parameters, a 1 m T array, and a median subject.
func DefaultConfig() Config {
	return Config{
		Radio:   fmcw.Default(),
		Array:   geom.NewTArray(1.0, 1.5),
		Scene:   rf.StandardScene(true),
		Subject: body.DefaultSubject(),
		Seed:    1,
	}
}

// Sample is one 3D location output.
type Sample struct {
	// T is the time of the frame in seconds from the start of the run.
	T float64
	// Pos is the estimated 3D position (body surface point; apply
	// body.CompensateSurfaceDepth to compare against body centers).
	Pos geom.Vec3
	// Valid is false before first acquisition.
	Valid bool
	// Moving reports whether this frame carried fresh motion energy on
	// at least two antennas (false = interpolated/held output).
	Moving bool
	// Degraded reports that the fix was solved on a reduced antenna
	// subset because one or more antennas were unhealthy (dark, NaN-
	// poisoned) — still a real 3D fix, but with worse dilution of
	// precision. Always false on unmonitored (fault-free) runs.
	Degraded bool
	// Truth is the simulated ground-truth body center at T (the VICON
	// substitute; empty when tracking real hardware).
	Truth geom.Vec3
	// TruthMoving is the ground-truth motion flag.
	TruthMoving bool
}

// RunResult carries the full output of a tracking run.
type RunResult struct {
	Samples []Sample
	// PerAntenna holds the per-frame estimate of each receive antenna
	// (round-trip distances), for diagnostics and the pointing pipeline.
	PerAntenna [][]track.Estimate
	// Spectrograms, when recording was enabled, holds the per-antenna
	// magnitude spectrograms (raw) for figure generation.
	Spectrograms []*dsp.Spectrogram
	// ProcessingTime is the total CPU time spent in the signal-processing
	// pipeline (tracking + localization), excluding synthesis — the
	// quantity the paper's §7 75 ms latency budget constrains.
	ProcessingTime time.Duration
	// Frames is the number of frames processed.
	Frames int
}

// Device is a simulated WiTrack unit tracking one person. A device runs
// one trajectory at a time: Run and Stream drive the same staged
// pipeline over the device's trackers and RNG and must not be called
// concurrently on one device. Everything it shares with MultiDevice —
// the simulator, the pipeline settings (Workers, Pool, MonitorHealth,
// FrameDeadline), fault injection, recording and Reset — lives in the
// embedded shell; Device adds the one-round-trip trackers, the
// Solve/SolveMasked fuse and the diagnostics of Run.
type Device struct {
	shell[*track.Tracker]

	// RecordSpectrograms retains raw magnitude frames (memory heavy;
	// used for Fig. 3/Fig. 5 generation).
	RecordSpectrograms bool
}

// NewDevice validates the configuration and builds the device.
func NewDevice(cfg Config) (*Device, error) {
	d := &Device{}
	if err := d.init(cfg, track.New); err != nil {
		return nil, err
	}
	return d, nil
}

// antResult is one antenna's per-frame output inside the pipeline.
type antResult struct {
	est  track.Estimate
	mag  dsp.Frame // only set when recording spectrograms
	dark bool      // monitored pipelines: exclude this antenna from the solve
}

// run drives the staged pipeline over src and calls emit with each
// fused sample in frame order; when diag is non-nil it first receives
// the frame's per-antenna estimates and (when recording) magnitude
// frames, which it must not retain. It returns the accumulated
// signal-processing CPU time (tracking + localization, across all
// workers) — the paper's §7 budget quantity.
func (d *Device) run(ctx context.Context, src FrameSource, emit func(Sample) bool,
	diag func(ests []track.Estimate, mags []dsp.Frame)) time.Duration {
	nRx := len(d.cfg.Array.Rx)
	monitor := d.monitored()
	procNS := make([]int64, nRx)
	var locateNS int64

	push := func(k int, frame dsp.ComplexFrame, healthy, dark bool) antResult {
		start := time.Now()
		var r antResult
		if healthy {
			r.est = d.trackers[k].Push(frame)
		} else {
			r.est = d.trackers[k].Coast()
			r.dark = dark
		}
		procNS[k] += time.Since(start).Nanoseconds()
		if d.RecordSpectrograms {
			r.mag = frame.Mag()
		}
		return r
	}

	ests := make([]track.Estimate, nRx)
	mags := make([]dsp.Frame, nRx)
	healthy := make([]bool, nRx)
	fuse := func(b *FrameBatch, rs []antResult) bool {
		movingCount := 0
		for k, r := range rs {
			ests[k] = r.est
			mags[k] = r.mag
			healthy[k] = !r.dark
			if r.est.Moving {
				movingCount++
			}
		}
		sample := Sample{T: b.T}
		if len(b.States) > 0 {
			sample.Truth = b.States[0].Center
			sample.TruthMoving = b.States[0].Moving
		}
		start := time.Now()
		if monitor {
			if pos, used, err := d.locator.SolveMasked(ests, healthy); err == nil {
				sample.Pos = pos
				sample.Valid = true
				sample.Moving = movingCount >= 2
				sample.Degraded = used < nRx
			}
		} else if pos, err := d.locator.Solve(ests); err == nil {
			sample.Pos = pos
			sample.Valid = true
			sample.Moving = movingCount >= 2
		}
		locateNS += time.Since(start).Nanoseconds()
		if diag != nil {
			diag(ests, mags)
		}
		return emit(sample)
	}

	runStages(&d.shell, ctx, src, push, fuse)
	total := locateNS
	for _, ns := range procNS {
		total += ns
	}
	return time.Duration(total)
}

// stream is run without diagnostics, in the shape deliver drives.
func (d *Device) stream(ctx context.Context, src FrameSource, emit func(Sample) bool) {
	d.run(ctx, src, emit, nil)
}

// Stream tracks the trajectory and delivers location samples as they
// are produced, in frame order, on the returned channel — the primary
// API. The channel is closed when the trajectory ends or ctx is
// cancelled. For a fixed seed the sample sequence is bit-identical to
// Run's: the simulation RNG is consumed in serial frame order by the
// source stage; only deterministic processing fans out.
func (d *Device) Stream(ctx context.Context, traj motion.Trajectory) <-chan Sample {
	src, _ := d.simSource([]motion.Trajectory{traj}) // one trajectory, one subject
	return deliver(ctx, src, d.stream)
}

// StreamFrom runs the pipeline over an arbitrary frame source (a
// recorded trace, a hardware front end) instead of the built-in
// simulator. It returns an error if the source's antenna count does
// not match the device's array.
func (d *Device) StreamFrom(ctx context.Context, src FrameSource) (<-chan Sample, error) {
	if err := d.checkSource(src); err != nil {
		return nil, err
	}
	return deliver(ctx, src, d.stream), nil
}

// Run simulates tracking the trajectory for its full duration and
// returns the location samples plus diagnostics. It is Stream's
// pipeline run to completion with all diagnostics collected.
func (d *Device) Run(traj motion.Trajectory) *RunResult {
	nRx := len(d.cfg.Array.Rx)
	src, _ := d.simSource([]motion.Trajectory{traj})
	// The source knows the run length up front; pre-sizing the result
	// slices keeps append-growth reallocations out of the streaming loop.
	nFrames := src.Frames()
	res := &RunResult{
		Samples:    make([]Sample, 0, nFrames),
		PerAntenna: make([][]track.Estimate, nRx),
	}
	for k := range res.PerAntenna {
		res.PerAntenna[k] = make([]track.Estimate, 0, nFrames)
	}
	if d.RecordSpectrograms {
		res.Spectrograms = make([]*dsp.Spectrogram, nRx)
		for k := range res.Spectrograms {
			res.Spectrograms[k] = &dsp.Spectrogram{
				BinDistance:   d.cfg.Radio.BinDistance(),
				FrameInterval: d.cfg.Radio.FrameInterval(),
				Frames:        make([]dsp.Frame, 0, nFrames),
			}
		}
	}
	res.ProcessingTime = d.run(context.Background(), src,
		func(s Sample) bool {
			res.Samples = append(res.Samples, s)
			res.Frames++
			return true
		},
		func(ests []track.Estimate, mags []dsp.Frame) {
			for k := 0; k < nRx; k++ {
				res.PerAntenna[k] = append(res.PerAntenna[k], ests[k])
			}
			if d.RecordSpectrograms {
				for k := 0; k < nRx; k++ {
					res.Spectrograms[k].Frames = append(res.Spectrograms[k].Frames, mags[k])
				}
			}
		})
	return res
}

// CalibrateBackground implements the paper's §10 proposal for locating a
// static user: record the empty room for the given number of frames and
// install the averaged complex profile as each tracker's background.
// Subsequent runs subtract this profile instead of the previous frame,
// so even a motionless person stands out (her reflection is absent from
// the calibration).
func (d *Device) CalibrateBackground(frames int) {
	nRx := len(d.cfg.Array.Rx)
	for k := 0; k < nRx; k++ {
		d.trackers[k].SetBackground(track.AverageBackground(frames, func() dsp.ComplexFrame {
			paths := d.prop.StaticPaths(k)
			if d.cfg.SlowSynth {
				return d.synth.SynthesizeComplexFrameSlow(paths, d.rng)
			}
			return d.synth.SynthesizeComplexFrame(paths, d.rng)
		}))
	}
}

// ClearBackground returns the device to consecutive-frame subtraction.
func (d *Device) ClearBackground() {
	for _, tr := range d.trackers {
		tr.SetBackground(nil)
	}
}
