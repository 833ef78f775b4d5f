package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"witrack/internal/dsp"
	"witrack/internal/trace"
)

// corpusLikeSpec returns a tiny recordable scenario (with background
// calibration, the trickiest replay-state dependency) for round-trip
// tests.
func corpusLikeSpec() *Spec {
	return New("rt-static", "record/replay round-trip cell").
		Seeded(97).ThroughWall().
		Static(0.4, 3.6, 3).
		Device(DeviceSpec{
			Separation:      1.0,
			CalibrateFrames: 20,
			Radio:           RadioSpec{MaxRange: 11, SweepsPerFrame: 25},
		})
}

// metricsBitEqual compares two metric maps value-for-value by IEEE bits.
func metricsBitEqual(a, b Metrics) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || math.Float64bits(av) != math.Float64bits(bv) {
			return false
		}
	}
	return true
}

// TestRecordCellReplayMatchesLiveCell is the scenario-level replay
// equivalence gate: a cell recorded to a .wtrace and replayed through
// ReplayTrace must score metrics bit-identical to the live runner's
// cell (same seeds, same calibration, same scoring code).
func TestRecordCellReplayMatchesLiveCell(t *testing.T) {
	for _, mk := range []func() *Spec{
		corpusLikeSpec,
		func() *Spec {
			return New("rt-walk", "record/replay walk cell").
				Seeded(41).
				Body(BodySpec{Motion: MotionSpec{
					Kind: MotionWalk, Duration: 3.5, Seed: 43,
					Region: &RegionSpec{XMin: -1.5, XMax: 1.5, YMin: 3, YMax: 4.6},
				}}).
				Device(DeviceSpec{Separation: 1.0, Radio: RadioSpec{MaxRange: 11, SweepsPerFrame: 25}})
		},
		func() *Spec {
			return New("rt-duo", "record/replay two-person cell").
				Seeded(47).EmptyRoom().
				Body(BodySpec{Motion: MotionSpec{
					Kind: MotionWalk, Duration: 3.5, Seed: 48,
					Region: &RegionSpec{XMin: -1.2, XMax: 1.2, YMin: 3, YMax: 3.8},
				}}).
				Body(BodySpec{
					Subject: SubjectSpec{PanelSize: 11, PanelSeed: 309, PanelIndex: 3},
					Motion: MotionSpec{
						Kind: MotionWalk, Duration: 3.5, Seed: 49,
						Region: &RegionSpec{XMin: -0.8, XMax: 0.8, YMin: 4.8, YMax: 5.2},
					}}).
				Device(DeviceSpec{Separation: 1.0, Radio: RadioSpec{MaxRange: 11, SweepsPerFrame: 25}})
		},
	} {
		sp := mk()
		t.Run(sp.Name, func(t *testing.T) {
			if err := sp.Validate(); err != nil {
				t.Fatal(err)
			}
			live, err := runCell(context.Background(), sp, 0, false)
			if err != nil {
				t.Fatal(err)
			}

			var buf bytes.Buffer
			frames, _, err := RecordCell(sp, 0, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if frames != live.res.Frames {
				t.Fatalf("recorded %d frames, live cell processed %d", frames, live.res.Frames)
			}
			res, err := ReplayTrace(context.Background(), bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if res.Name != sp.Name || res.Device != 0 {
				t.Fatalf("replay identity (%s, %d) != (%s, 0)", res.Name, res.Device, sp.Name)
			}
			if res.Frames != live.res.Frames {
				t.Fatalf("replayed %d frames, live cell %d", res.Frames, live.res.Frames)
			}
			if !metricsBitEqual(res.Metrics, live.res.Metrics) {
				t.Fatalf("replay metrics diverged from live cell:\n  live   %v\n  replay %v",
					live.res.Metrics, res.Metrics)
			}

			// A second replay of the same bytes must reproduce itself.
			res2, err := ReplayTrace(context.Background(), bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !metricsBitEqual(res.Metrics, res2.Metrics) {
				t.Fatal("two replays of the same trace diverged")
			}
		})
	}
}

// TestSweepCellReplayMatchesLiveCell is the sweep-domain replay
// equivalence gate: the compact sweep cell recorded as raw sweeps and
// replayed — through the full window + RFFT + averaging path — must
// score bit-identical to the live runner's cell.
func TestSweepCellReplayMatchesLiveCell(t *testing.T) {
	sp := SweepCell()
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	live, err := runCell(context.Background(), &sp, 0, false)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	frames, _, err := RecordCellSweeps(&sp, 0, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if frames != live.res.Frames {
		t.Fatalf("recorded %d sweep frames, live cell processed %d", frames, live.res.Frames)
	}

	res, err := ReplayTrace(context.Background(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != live.res.Frames {
		t.Fatalf("replayed %d frames, live cell %d", res.Frames, live.res.Frames)
	}
	if !metricsBitEqual(res.Metrics, live.res.Metrics) {
		t.Fatalf("sweep replay metrics diverged from live cell:\n  live   %v\n  replay %v",
			live.res.Metrics, res.Metrics)
	}
}

// TestSweepCellInt16ReplayMatchesLiveCell extends the sweep-domain
// equivalence gate to the quantized path: the int16 cell recorded as
// delta-coded ADC codes and replayed through the int16 frame body
// (exact code sum, one dequantize, window, FFT) must score
// bit-identical to the live quantized run —
// and the trace must actually carry the int16 encoding, substantially smaller than the float64
// recording of the same walk. RecordCell must write the same bytes as
// RecordCellSweeps for it.
func TestSweepCellInt16ReplayMatchesLiveCell(t *testing.T) {
	sp := SweepCellInt16()
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	live, err := runCell(context.Background(), &sp, 0, false)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	frames, raw, err := RecordCellSweeps(&sp, 0, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if frames != live.res.Frames {
		t.Fatalf("recorded %d int16 sweep frames, live cell processed %d", frames, live.res.Frames)
	}

	// RecordCell (what RecordScenarioCell and witrack-record call) must
	// pick the same int16 sweep capture for an ADC cell: the bin-domain
	// alternative is a trace ReplayTrace refuses for this provenance.
	var viaCell bytes.Buffer
	if _, _, err := RecordCell(&sp, 0, &viaCell); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaCell.Bytes(), buf.Bytes()) {
		t.Fatalf("RecordCell wrote %d B for the int16 cell, RecordCellSweeps %d B; want identical traces", viaCell.Len(), buf.Len())
	}

	tr, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h := tr.Header()
	if h.Sample != trace.SampleInt16 || h.ADCBits != 14 || h.ADCScale <= 0 {
		t.Fatalf("int16 cell recorded header %+v, want SampleInt16 with ADCBits=14 and a positive scale", h)
	}

	var buf64 bytes.Buffer
	sp64 := SweepCell()
	if _, _, err := RecordCellSweeps(&sp64, 0, &buf64); err != nil {
		t.Fatal(err)
	}
	ratio := float64(buf64.Len()) / float64(buf.Len())
	t.Logf("int16 trace %d B (%d B raw), float64 trace %d B: %.2fx smaller", buf.Len(), raw, buf64.Len(), ratio)
	if ratio < 3 {
		t.Fatalf("int16 sweep trace is only %.2fx smaller than the float64 recording, want >= 3x", ratio)
	}

	res, err := ReplayTrace(context.Background(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != live.res.Frames {
		t.Fatalf("replayed %d frames, live cell %d", res.Frames, live.res.Frames)
	}
	if !metricsBitEqual(res.Metrics, live.res.Metrics) {
		t.Fatalf("int16 replay metrics diverged from live cell:\n  live   %v\n  replay %v",
			live.res.Metrics, res.Metrics)
	}
}

func TestRecordableRejectsProtocols(t *testing.T) {
	fall := New("f", "").Seeded(1).
		Body(BodySpec{Motion: MotionSpec{Kind: MotionFallStudy}})
	if err := fall.Recordable(); err == nil {
		t.Fatal("protocol scenario must not be recordable")
	}
	// Multi-person tracking cells record on MultiDevice.
	two := New("t", "").Seeded(1).Walk(3, 2).Walk(3, 3)
	if err := two.Recordable(); err != nil {
		t.Fatalf("two-body tracking cell should be recordable: %v", err)
	}
	var buf bytes.Buffer
	if _, _, err := RecordCell(fall, 0, &buf); err == nil {
		t.Fatal("RecordCell must reject protocol scenarios")
	}
}

func TestReplayRejectsMissingProvenance(t *testing.T) {
	// A raw device capture (valid trace, no scenario spec embedded)
	// cannot be scenario-replayed.
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Header{Interval: 0.0125, NumRx: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayTrace(context.Background(), bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("replay of a provenance-free trace must fail")
	}
}

func TestReplayRejectsTamperedProvenance(t *testing.T) {
	sp := corpusLikeSpec()
	var buf bytes.Buffer
	if _, _, err := RecordCell(sp, 0, &buf); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	bins := tr.Header().Bins
	// Re-encode the trace with a header whose recorded deployment no
	// longer matches what the provenance spec compiles to, or with
	// records that disagree with their header's bin count: replay must
	// refuse rather than score frames against the wrong device.
	resize := func(n int) func([]dsp.ComplexFrame) {
		return func(frames []dsp.ComplexFrame) {
			for k := range frames {
				frames[k] = make(dsp.ComplexFrame, n)
			}
		}
	}
	for name, tamper := range map[string]struct {
		header func(*trace.Header)
		frames func([]dsp.ComplexFrame)
	}{
		"seed":          {header: func(h *trace.Header) { h.Seed += 1000 }},
		"radio":         {header: func(h *trace.Header) { h.Radio.MaxRange += 2 }},
		"calibrate":     {header: func(h *trace.Header) { h.CalibrateFrames /= 2 }},
		"bins":          {header: func(h *trace.Header) { h.Bins-- }},
		"records-empty": {frames: resize(0)},
		"records-one":   {frames: resize(1)},
		"records-short": {frames: resize(bins - 1)},
		"records-long":  {frames: resize(bins + 5)},
	} {
		t.Run(name, func(t *testing.T) {
			tr, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			h := tr.Header()
			if tamper.header != nil {
				tamper.header(&h)
			}
			var tampered bytes.Buffer
			tw, err := trace.NewWriter(&tampered, h)
			if err != nil {
				t.Fatal(err)
			}
			for {
				frames, truths, err := tr.ReadFrameTruthsInto(nil, nil)
				if err != nil {
					break
				}
				if tamper.frames != nil {
					tamper.frames(frames)
				}
				if err := tw.WriteFrameTruths(frames, truths); err != nil {
					t.Fatal(err)
				}
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := ReplayTrace(context.Background(), bytes.NewReader(tampered.Bytes())); err == nil {
				t.Fatal("replay must reject a trace that disagrees with its provenance")
			}
		})
	}
}

// TestReplayRefusesForgedRadio: a trace whose header and provenance
// agree on a radio past fmcw.MaxSamplesPerSweep is refused before the
// replaying device builds its synthesizer, whose window, FFT plan and
// kernel table would otherwise grow with whatever sweep the trace names.
// The trace is a bin-domain one, which names its sweep only in the
// radio: a sweep-domain header declaring such a sweep shape is already
// refused by the trace reader (trace's TestHeaderCaps).
func TestReplayRefusesForgedRadio(t *testing.T) {
	sp := SweepCell()
	sp.Devices[0].Radio.SampleRate = 1e9 // 2,500,000 samples per 2.5 ms sweep
	c, err := Compile(&sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	radio := c.Config.Radio
	h := trace.Header{
		Name:     sp.Name,
		Seed:     c.Config.Seed,
		Interval: radio.FrameInterval(),
		NumRx:    len(c.Config.Array.Rx),
		Radio:    radio,
		Array:    c.Config.Array,
	}
	if h.Scenario, err = json.Marshal(&sp); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = ReplayTrace(context.Background(), bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "samples per sweep exceeds") {
		t.Fatalf("replay of a trace naming a %d-sample sweep returned %v, want the sweep-length refusal", radio.SamplesPerSweep(), err)
	}
}

// TestReplayRefusesForgedDuration: a trace whose provenance names a
// 1e9 s walk is refused before the replaying device builds the walk,
// whose segments would otherwise cover the whole declared duration.
func TestReplayRefusesForgedDuration(t *testing.T) {
	sp := SweepCell()
	c, err := Compile(&sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	radio := c.Config.Radio
	h := trace.Header{
		Name:            sp.Name,
		Seed:            c.Config.Seed,
		Interval:        radio.FrameInterval(),
		NumRx:           len(c.Config.Array.Rx),
		Radio:           radio,
		Array:           c.Config.Array,
		Domain:          trace.DomainSweeps,
		SweepsPerFrame:  radio.SweepsPerFrame,
		SamplesPerSweep: radio.SamplesPerSweep(),
	}
	sp.Bodies[0].Motion.Duration = 1e9
	if h.Scenario, err = json.Marshal(&sp); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = ReplayTrace(context.Background(), bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "duration") {
		t.Fatalf("replay of a trace naming a 1e9 s walk returned %v, want the duration refusal", err)
	}
}

// TestReplayRefusesForgedCalibration: a trace whose header and
// provenance agree on 1e9 calibration frames is refused before the
// replaying device synthesizes the first of them.
func TestReplayRefusesForgedCalibration(t *testing.T) {
	sp := corpusLikeSpec()
	sp.Devices[0].CalibrateFrames = 1e9
	// The forged spec no longer compiles; the header's deployment comes
	// from the original.
	c, err := Compile(corpusLikeSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	radio := c.Config.Radio
	h := trace.Header{
		Name:            sp.Name,
		Seed:            c.Config.Seed,
		Interval:        radio.FrameInterval(),
		NumRx:           len(c.Config.Array.Rx),
		Radio:           radio,
		Array:           c.Config.Array,
		CalibrateFrames: sp.Devices[0].CalibrateFrames,
	}
	if h.Scenario, err = json.Marshal(sp); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = ReplayTrace(context.Background(), bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "calibration frames exceed") {
		t.Fatalf("replay of a trace naming 1e9 calibration frames returned %v, want the calibration refusal", err)
	}
}

// TestCorpusSpecsAreRecordable pins the contract behind the checked-in
// golden corpus: every corpus spec validates, is recordable, and names
// itself uniquely (also against the canonical matrix, so -spec users
// can mix them).
func TestCorpusSpecsAreRecordable(t *testing.T) {
	seen := map[string]bool{}
	for _, sp := range Canonical() {
		seen[sp.Name] = true
	}
	corpus := Corpus()
	if len(corpus) < 3 || len(corpus) > 5 {
		t.Fatalf("corpus has %d specs, want 3-5", len(corpus))
	}
	multi := 0
	for i := range corpus {
		if len(corpus[i].Bodies) >= 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("corpus has no multi-person cell — the k-person replay seam is uncovered")
	}
	for i := range corpus {
		sp := &corpus[i]
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := sp.Recordable(); err != nil {
			t.Fatal(err)
		}
		if seen[sp.Name] {
			t.Fatalf("corpus scenario %q collides with another scenario name", sp.Name)
		}
		seen[sp.Name] = true
	}
}

// TestRadioSpecOverridesCompile pins the new per-device radio knobs.
func TestRadioSpecOverridesCompile(t *testing.T) {
	sp := corpusLikeSpec()
	c, err := Compile(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Config.Radio.MaxRange != 11 {
		t.Fatalf("MaxRange override not applied: %g", c.Config.Radio.MaxRange)
	}
	if c.Config.Radio.SweepsPerFrame != 25 {
		t.Fatalf("SweepsPerFrame override not applied: %d", c.Config.Radio.SweepsPerFrame)
	}
	if c.Config.Radio.FrameInterval() != 25*0.0025 {
		t.Fatalf("frame interval %g", c.Config.Radio.FrameInterval())
	}
	bad := corpusLikeSpec()
	bad.Devices[0].Radio.MaxRange = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative radio override must fail validation")
	}

	sweep := SweepCell()
	sc, err := Compile(&sweep, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Config.Radio.SampleRate != 128e3 {
		t.Fatalf("SampleRate override not applied: %g", sc.Config.Radio.SampleRate)
	}
	if sc.Config.Radio.SweepTime != 2.5e-3 {
		t.Fatalf("SweepTime override not applied: %g", sc.Config.Radio.SweepTime)
	}
	if got := sc.Config.Radio.SamplesPerSweep(); got != 320 {
		t.Fatalf("sweep cell compiles to %d samples per sweep, want 320", got)
	}
}
