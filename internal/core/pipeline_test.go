package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"witrack/internal/dsp"
	"witrack/internal/fmcw"
	"witrack/internal/geom"
	"witrack/internal/locate"
	"witrack/internal/motion"
	"witrack/internal/trace"
	"witrack/internal/track"
)

// serialRun is the pre-pipeline Device.Run loop, kept verbatim as the
// bit-exactness reference: synthesize each antenna in order with the
// shared RNG, track, localize — all on one goroutine.
func serialRun(d *Device, traj motion.Trajectory) []Sample {
	nRx := len(d.cfg.Array.Rx)
	interval := d.cfg.Radio.FrameInterval()
	ests := make([]track.Estimate, nRx)
	var out []Sample
	n := frameCount(traj.Duration(), interval)
	for i := 0; i < n; i++ {
		t := float64(i) * interval
		st := traj.At(t)
		refl := d.sims[0].reflectorsInto(nil, st, d.cfg.Array.Tx, nRx, interval)
		frames := make([]dsp.ComplexFrame, nRx)
		for k := 0; k < nRx; k++ {
			paths := append([]fmcw.Path(nil), d.prop.StaticPaths(k)...)
			for _, r := range refl[k] {
				paths = append(paths, d.prop.TargetPaths(k, r.pt, r.rcs)...)
			}
			if d.cfg.SlowSynth {
				frames[k] = d.synth.SynthesizeComplexFrameSlow(paths, d.rng)
			} else {
				frames[k] = d.synth.SynthesizeComplexFrame(paths, d.rng)
			}
		}
		movingCount := 0
		for k := 0; k < nRx; k++ {
			ests[k] = d.trackers[k].Push(frames[k])
			if ests[k].Moving {
				movingCount++
			}
		}
		sample := Sample{T: t, Truth: st.Center, TruthMoving: st.Moving}
		if pos, err := d.locator.Solve(ests); err == nil {
			sample.Pos = pos
			sample.Valid = true
			sample.Moving = movingCount >= 2
		}
		out = append(out, sample)
	}
	return out
}

func newTestDevice(t *testing.T, seed int64) *Device {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func testWalk(duration float64, seed int64) motion.Trajectory {
	return motion.NewRandomWalk(motion.DefaultWalkConfig(testRegion(), 0.96, duration, seed))
}

// TestStreamMatchesSerialRun is the pipeline's central safety property:
// for a fixed seed, the concurrent Stream produces exactly — bit for
// bit — the samples of the old single-threaded loop, at any worker
// count. Only the schedule is concurrent; the observable sequence and
// every RNG draw stay in serial frame order.
func TestStreamMatchesSerialRun(t *testing.T) {
	traj := testWalk(6, 3)
	want := serialRun(newTestDevice(t, 7), traj)

	for _, workers := range []int{0, 1, 2} {
		dev := newTestDevice(t, 7)
		dev.Workers = workers
		var got []Sample
		for s := range dev.Stream(context.Background(), traj) {
			got = append(got, s)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d samples, serial produced %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d sample %d diverged:\n  stream %+v\n  serial %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRunMatchesSerial checks Run (the collect-everything wrapper over
// the same pipeline) against the serial reference, including the
// per-antenna diagnostics length and frame count.
func TestRunMatchesSerial(t *testing.T) {
	traj := testWalk(5, 11)
	want := serialRun(newTestDevice(t, 5), traj)

	dev := newTestDevice(t, 5)
	res := dev.Run(traj)
	if res.Frames != len(want) {
		t.Fatalf("Run frames = %d, serial = %d", res.Frames, len(want))
	}
	for i := range want {
		if res.Samples[i] != want[i] {
			t.Fatalf("sample %d diverged:\n  run    %+v\n  serial %+v", i, res.Samples[i], want[i])
		}
	}
	for k, pa := range res.PerAntenna {
		if len(pa) != len(want) {
			t.Fatalf("PerAntenna[%d] has %d entries, want %d", k, len(pa), len(want))
		}
	}
}

// serialMultiRun is the pre-pipeline MultiDevice.Run loop, kept as the
// two-person bit-exactness reference.
func serialMultiRun(d *MultiDevice, trajA, trajB motion.Trajectory) []MultiSample {
	nRx := len(d.cfg.Array.Rx)
	interval := d.cfg.Radio.FrameInterval()
	dur := trajA.Duration()
	if trajB.Duration() < dur {
		dur = trajB.Duration()
	}
	var out []MultiSample
	prev := make([]geom.Vec3, 2)
	havePrev := false
	n := frameCount(dur, interval)
	for i := 0; i < n; i++ {
		t := float64(i) * interval
		stA := trajA.At(t)
		stB := trajB.At(t)
		reflA := d.sims[0].reflectorsInto(nil, stA, d.cfg.Array.Tx, nRx, interval)
		reflB := d.sims[1].reflectorsInto(nil, stB, d.cfg.Array.Tx, nRx, interval)

		pairs := make([][]float64, nRx)
		ok := true
		for k := 0; k < nRx; k++ {
			paths := append([]fmcw.Path(nil), d.prop.StaticPaths(k)...)
			for _, r := range reflA[k] {
				paths = append(paths, d.prop.TargetPaths(k, r.pt, r.rcs)...)
			}
			for _, r := range reflB[k] {
				paths = append(paths, d.prop.TargetPaths(k, r.pt, r.rcs)...)
			}
			ests := d.trackers[k].Push(d.synth.SynthesizeComplexFrame(paths, d.rng))
			if !ests[0].Valid || !ests[1].Valid {
				ok = false
				continue
			}
			pairs[k] = []float64{ests[0].RoundTrip, ests[1].RoundTrip}
		}
		sample := MultiSample{T: t, Truth: []geom.Vec3{stA.Center, stB.Center}}
		if ok {
			if pos, err := locate.SolveK(d.locator, pairs, prev, havePrev); err == nil {
				sample.Pos = pos
				sample.Valid = true
				copy(prev, pos)
				havePrev = true
			}
		}
		out = append(out, sample)
	}
	return out
}

// multiSamplesEqual compares k-person samples field by field (the Pos
// and Truth slices make MultiSample non-comparable).
func multiSamplesEqual(a, b MultiSample) bool {
	if a.T != b.T || a.Valid != b.Valid || len(a.Pos) != len(b.Pos) || len(a.Truth) != len(b.Truth) {
		return false
	}
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			return false
		}
	}
	for i := range a.Truth {
		if a.Truth[i] != b.Truth[i] {
			return false
		}
	}
	return true
}

// TestMultiRunMatchesSerial extends the equivalence property to the
// two-person pipeline.
func TestMultiRunMatchesSerial(t *testing.T) {
	mk := func() *MultiDevice {
		cfg := DefaultConfig()
		cfg.Seed = 21
		md, err := NewMultiDevice(cfg, cfg.Subject)
		if err != nil {
			t.Fatal(err)
		}
		return md
	}
	trajA := motion.NewRandomWalk(motion.DefaultWalkConfig(
		motion.Region{XMin: -3, XMax: -0.8, YMin: 3, YMax: 4.5}, 0.96, 5, 3))
	trajB := motion.NewRandomWalk(motion.DefaultWalkConfig(
		motion.Region{XMin: 0.8, XMax: 3, YMin: 5.8, YMax: 7.5}, 0.96, 5, 4))

	want := serialMultiRun(mk(), trajA, trajB)
	got := mk().Run(trajA, trajB).Samples
	if len(got) != len(want) {
		t.Fatalf("pipeline produced %d samples, serial %d", len(got), len(want))
	}
	for i := range want {
		if !multiSamplesEqual(got[i], want[i]) {
			t.Fatalf("multi sample %d diverged:\n  pipeline %+v\n  serial   %+v", i, got[i], want[i])
		}
	}
}

// TestStreamCancellation verifies the pipeline shuts down promptly and
// cleanly (all goroutines exit, channel closes) when the consumer
// cancels mid-run. Run under -race in CI.
func TestStreamCancellation(t *testing.T) {
	dev := newTestDevice(t, 9)
	ctx, cancel := context.WithCancel(context.Background())
	ch := dev.Stream(ctx, testWalk(300, 4)) // far longer than we read
	for i := 0; i < 10; i++ {
		if _, ok := <-ch; !ok {
			t.Fatal("stream ended before cancellation")
		}
	}
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return // closed: clean shutdown
			}
		case <-deadline:
			t.Fatal("stream channel not closed within 5s of cancellation")
		}
	}
}

// TestStreamFromRecorded replays captured frames through StreamFrom and
// checks the result matches a live device consuming the same frames —
// the recorded-trace/hardware seam the FrameSource interface exists for.
// The frames are synthesized by hand here, not by the device's own
// recorder, and reach the replaying device as an in-memory trace.
func TestStreamFromRecorded(t *testing.T) {
	traj := testWalk(4, 13)

	// Capture the per-frame complex frames a live run would consume.
	capDev := newTestDevice(t, 31)
	interval := capDev.cfg.Radio.FrameInterval()
	nRx := len(capDev.cfg.Array.Rx)
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, capDev.TraceHeader())
	if err != nil {
		t.Fatal(err)
	}
	n := frameCount(traj.Duration(), interval)
	for i := 0; i < n; i++ {
		st := traj.At(float64(i) * interval)
		refl := capDev.sims[0].reflectorsInto(nil, st, capDev.cfg.Array.Tx, nRx, interval)
		frames := make([]dsp.ComplexFrame, nRx)
		for k := 0; k < nRx; k++ {
			paths := append([]fmcw.Path(nil), capDev.prop.StaticPaths(k)...)
			for _, r := range refl[k] {
				paths = append(paths, capDev.prop.TargetPaths(k, r.pt, r.rcs)...)
			}
			frames[k] = capDev.synth.SynthesizeComplexFrame(paths, capDev.rng)
		}
		if err := tw.WriteFrameTruths(frames, []motion.BodyState{st}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh, identically seeded device streaming the simulator...
	var live []Sample
	for s := range newTestDevice(t, 31).Stream(context.Background(), traj) {
		live = append(live, s)
	}
	// ...must match a device replaying the recording (tracker configs
	// identical; the replay device's RNG is never touched).
	replayCfg := DefaultConfig()
	replayCfg.Seed = 99
	replay := replayTraceBytes(t, replayCfg, buf.Bytes())
	if len(replay) != len(live) {
		t.Fatalf("replay produced %d samples, live %d", len(replay), len(live))
	}
	for i := range live {
		if replay[i] != live[i] {
			t.Fatalf("replayed sample %d diverged:\n  replay %+v\n  live   %+v", i, replay[i], live[i])
		}
	}
}

// TestFrameCount pins the integer frame clock: exact multiples keep
// their final frame (the accumulating-float loop could drop it), and
// degenerate durations behave like the old loop's entry condition.
func TestFrameCount(t *testing.T) {
	cases := []struct {
		dur, interval float64
		want          int
	}{
		{30, 0.0125, 2401}, // 30/0.0125 = 2400 exactly: final frame kept
		{0, 0.0125, 1},     // t=0 always runs
		{-1, 0.0125, 0},
		{0.03, 0.0125, 3},      // frames at 0, 12.5, 25 ms
		{0.0125, 0.0125, 2},    // exact single interval
		{3600, 0.0125, 288001}, // one hour: no drift
	}
	for _, c := range cases {
		if got := frameCount(c.dur, c.interval); got != c.want {
			t.Errorf("frameCount(%v, %v) = %d, want %d", c.dur, c.interval, got, c.want)
		}
	}
}
