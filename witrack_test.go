package witrack

import (
	"bytes"
	"context"
	"math"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	walk := NewRandomWalk(DefaultWalkConfig(StandardRegion(), cfg.Subject.CenterHeight(), 10, 4))
	res := dev.Run(walk)
	if res.Frames < 700 {
		t.Fatalf("frames = %d", res.Frames)
	}
	valid := 0
	var sumErr float64
	for _, s := range res.Samples {
		if s.Valid && s.T > 2 {
			valid++
			est := CompensateSurfaceDepth(s.Pos, cfg.Array.Tx, cfg.Subject.SurfaceDepth)
			sumErr += est.Dist(s.Truth)
		}
	}
	if valid < 500 {
		t.Fatalf("valid samples = %d", valid)
	}
	if mean := sumErr / float64(valid); mean > 0.6 {
		t.Fatalf("mean 3D error %.3f m too large", mean)
	}
}

func TestPublicFallFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	script := NewActivityScript(ActivityConfig{
		Activity:     ActivityFall,
		Region:       StandardRegion(),
		CenterHeight: cfg.Subject.CenterHeight(),
		Seed:         4,
	})
	run := dev.Run(script)
	var ts, zs []float64
	for _, s := range run.Samples {
		if s.Valid {
			ts = append(ts, s.T)
			zs = append(zs, s.Pos.Z)
		}
	}
	verdict, err := DetectFall(DefaultFallConfig(), ts, zs)
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.Fall {
		t.Fatalf("simulated fall not detected: %+v", verdict)
	}
}

func TestPublicPointingFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	script := NewPointingScript(PointingConfig{
		Position:     Vec3{X: 0.5, Y: 4},
		CenterHeight: cfg.Subject.CenterHeight(),
		ArmLength:    cfg.Subject.ArmLength,
		Azimuth:      0.4,
		Elevation:    0.1,
		Seed:         8,
	})
	run := dev.Run(script)
	res, err := EstimatePointing(cfg.Array, cfg.Radio.FrameInterval(), run)
	if err != nil {
		t.Fatal(err)
	}
	truth := script.HandExtended().Sub(script.HandRest()).Unit()
	if e := PointingAngleError(res.Direction, truth); e > 45 {
		t.Fatalf("pointing error %.1f deg too large", e)
	}
}

func TestPublicHelpers(t *testing.T) {
	if r := DefaultRadio(); math.Abs(r.Resolution()-0.0887) > 0.001 {
		t.Fatal("radio resolution off")
	}
	arr := NewTArray(1, 1.5)
	if err := arr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(SubjectPanel(11, 1)) != 11 {
		t.Fatal("panel size")
	}
	los := StandardScene(false)
	tw := StandardScene(true)
	if len(tw.Walls) != len(los.Walls)+1 {
		t.Fatal("scene walls")
	}
	reg := StandardRegion()
	if !reg.Contains(Vec3{X: 0, Y: 5}) {
		t.Fatal("region")
	}
}

// TestPublicStreamFlow exercises the streaming API end to end through
// the public wrapper: Stream matches Run sample-for-sample for the same
// seed, and Workers = 1 does not change the output.
func TestPublicStreamFlow(t *testing.T) {
	mk := func() *Device {
		cfg := DefaultConfig()
		cfg.Seed = 3
		dev, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	walk := NewRandomWalk(DefaultWalkConfig(StandardRegion(), DefaultSubject().CenterHeight(), 5, 4))
	want := mk().Run(walk).Samples

	dev := mk()
	var got []Sample
	for s := range dev.Stream(context.Background(), walk) {
		got = append(got, s)
	}
	if len(got) != len(want) {
		t.Fatalf("stream produced %d samples, run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: stream %+v != run %+v", i, got[i], want[i])
		}
	}

	serial := mk()
	serial.Workers = 1
	i := 0
	for s := range serial.Stream(context.Background(), walk) {
		if s != want[i] {
			t.Fatalf("workers=1 sample %d: %+v != %+v", i, s, want[i])
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("workers=1 produced %d samples, want %d", i, len(want))
	}
}

// TestPublicMultiPersonFlow drives the k-person surface end to end
// through the public API: build a 3-person device, stream a concurrent
// run, and record/replay a two-person cell bit-identically.
func TestPublicMultiPersonFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 307
	cfg.Scene = EmptyScene()
	panel := SubjectPanel(11, 5)

	dev, err := NewMultiDevice(cfg, panel[3], panel[7])
	if err != nil {
		t.Fatal(err)
	}
	if dev.NumSubjects() != 3 {
		t.Fatalf("NumSubjects = %d, want 3", dev.NumSubjects())
	}
	walk := func(r Region, h, dur float64, seed int64) Trajectory {
		return NewRandomWalk(DefaultWalkConfig(r, h, dur, seed))
	}
	trajs := []Trajectory{
		walk(Region{XMin: -3, XMax: -1, YMin: 3, YMax: 4.3}, DefaultSubject().CenterHeight(), 6, 310),
		walk(Region{XMin: 0.8, XMax: 3, YMin: 5.6, YMax: 7.0}, panel[3].CenterHeight(), 6, 311),
		walk(Region{XMin: -2.5, XMax: -0.2, YMin: 8.2, YMax: 9}, panel[7].CenterHeight(), 6, 312),
	}
	ch, err := dev.Stream(context.Background(), trajs...)
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for s := range ch {
		if s.Valid {
			valid++
			if len(s.Pos) != 3 || len(s.Truth) != 3 {
				t.Fatalf("sample carries %d positions / %d truths, want 3", len(s.Pos), len(s.Truth))
			}
		}
	}
	if valid < 50 {
		t.Fatalf("only %d valid three-person fixes", valid)
	}

	// Trajectory-count mismatch must surface as an error, not a panic.
	if _, err := dev.Stream(context.Background(), trajs[0]); err == nil {
		t.Fatal("Stream with one trajectory for three subjects should error")
	}

	// Record/replay round trip on a two-person device.
	cfg2 := DefaultConfig()
	cfg2.Seed = 31
	cfg2.Scene = EmptyScene()
	pair := []Trajectory{
		walk(Region{XMin: -3, XMax: -0.8, YMin: 3, YMax: 4.5}, DefaultSubject().CenterHeight(), 3, 32),
		walk(Region{XMin: 0.8, XMax: 3, YMin: 5.8, YMax: 7.5}, panel[3].CenterHeight(), 3, 33),
	}
	recDev, err := NewMultiDevice(cfg2, panel[3])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, recDev.TraceHeader())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recDev.RecordTo(tw, pair...); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	liveDev, err := NewMultiDevice(cfg2, panel[3])
	if err != nil {
		t.Fatal(err)
	}
	live := liveDev.Run(pair...)

	replayDev, err := NewMultiDevice(cfg2, panel[3])
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	src := NewTraceSource(tr)
	rch, err := replayDev.StreamFrom(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for s := range rch {
		l := live.Samples[i]
		if s.T != l.T || s.Valid != l.Valid || len(s.Pos) != len(l.Pos) {
			t.Fatalf("replay sample %d diverged: %+v != %+v", i, s, l)
		}
		for j := range s.Pos {
			if s.Pos[j] != l.Pos[j] {
				t.Fatalf("replay sample %d pos %d: %v != %v", i, j, s.Pos[j], l.Pos[j])
			}
		}
		i++
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if i != live.Frames {
		t.Fatalf("replayed %d frames, live run %d", i, live.Frames)
	}
}

func TestPublicTraceRecordReplayFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	walk := NewRandomWalk(DefaultWalkConfig(StandardRegion(), DefaultSubject().CenterHeight(), 4, 6))

	recDev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, recDev.TraceHeader())
	if err != nil {
		t.Fatal(err)
	}
	n, err := recDev.RecordTo(tw, walk)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("recorded no frames")
	}

	liveDev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := liveDev.Run(walk).Samples

	replayDev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Header().Seed; got != cfg.Seed {
		t.Fatalf("trace header seed %d != %d", got, cfg.Seed)
	}
	src := NewTraceSource(tr)
	ch, err := replayDev.StreamFrom(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for s := range ch {
		if s != want[i] {
			t.Fatalf("replayed sample %d: %+v != live %+v", i, s, want[i])
		}
		i++
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("replay produced %d samples, live run %d", i, len(want))
	}
}

func TestPublicScenarioTraceFlow(t *testing.T) {
	specs := CorpusScenarios()
	if len(specs) == 0 {
		t.Fatal("no corpus scenarios")
	}
	sp := specs[0]
	var buf bytes.Buffer
	frames, err := RecordScenarioCell(&sp, 0, &buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayScenarioTrace(context.Background(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != sp.Name || res.Frames != frames {
		t.Fatalf("replay result %+v does not match recording (%s, %d frames)", res, sp.Name, frames)
	}
	if res.Metrics["valid_frac"] <= 0 {
		t.Fatalf("replay scored no valid frames: %v", res.Metrics)
	}
}
