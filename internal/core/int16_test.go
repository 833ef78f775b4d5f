package core

import (
	"bytes"
	"context"
	"testing"

	"witrack/internal/motion"
	"witrack/internal/trace"
)

// quantConfig is the quantized-ADC counterpart of DefaultConfig: the
// time-domain synthesis path with a 14-bit converter in front of it.
func quantConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.SlowSynth = true
	cfg.Radio.ADCBits = 14
	return cfg
}

// recordSweeps16Bytes captures the trajectory on a fresh quantized
// device into an in-memory int16 sweep trace and returns its bytes
// (compressed size) and the writer's pre-compression encoded size.
func recordSweeps16Bytes(t *testing.T, cfg Config, traj motion.Trajectory) (data []byte, raw int64) {
	t.Helper()
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, dev.SweepTraceHeader())
	if err != nil {
		t.Fatal(err)
	}
	if h := tw.Header(); h.Sample != trace.SampleInt16 || h.ADCBits != cfg.Radio.ADCBits {
		t.Fatalf("SweepTraceHeader on an ADC device = %+v, want int16 codes at %d bits", h, cfg.Radio.ADCBits)
	}
	if _, err := dev.RecordTo(tw, traj); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tw.RawBytes()
}

// TestInt16RecordReplayMatchesLive pins the quantized leg of the
// live == recorded == replayed parity chain: the codes RecordTo writes
// are the codes the live pipeline consumed, so streaming the trace back
// through TraceSource and the int16 frame body (sum the codes,
// dequantize once, one FFT) must reproduce the live run bit for bit —
// quantization happens once, in the source, and everything downstream
// of it is the deterministic pipeline.
func TestInt16RecordReplayMatchesLive(t *testing.T) {
	if testing.Short() {
		t.Skip("slow synthesis path")
	}
	cfg := quantConfig(51)
	traj := testWalk(1.5, 53)

	data, _ := recordSweeps16Bytes(t, cfg, traj)
	t.Logf("int16 trace: %d bytes for 1.5 s", len(data))

	liveDev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := liveDev.Run(traj).Samples
	if len(live) == 0 {
		t.Fatal("live run produced no samples")
	}

	replayed := replayTraceBytes(t, cfg, data)
	if len(replayed) != len(live) {
		t.Fatalf("replay produced %d samples, live run %d", len(replayed), len(live))
	}
	for i := range live {
		if live[i] != replayed[i] {
			t.Fatalf("sample %d diverged:\n  live   %+v\n  replay %+v", i, live[i], replayed[i])
		}
	}
}

// TestInt16ReplayWorkerInvariance is the golden-digest reproducibility
// property for quantized replay: the same int16 trace streamed through
// the pipeline at any worker count must fold to the same output digest.
// Integer dequantization has no scheduling-sensitive rounding, so this
// holds bit-exactly, not just within tolerance.
func TestInt16ReplayWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("slow synthesis path")
	}
	cfg := quantConfig(57)
	data, _ := recordSweeps16Bytes(t, cfg, testWalk(1.5, 59))

	var golden uint64
	for i, workers := range []int{0, 1, 2} {
		dev, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev.Workers = workers
		tr, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		src := NewTraceSource(tr)
		ch, err := dev.StreamFrom(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		var out []Sample
		for s := range ch {
			out = append(out, s)
		}
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
		h := goldenHash(out)
		if i == 0 {
			golden = h
			t.Logf("digest %#016x over %d samples", h, len(out))
			continue
		}
		if h != golden {
			t.Fatalf("workers=%d digest %#016x != workers=0 digest %#016x — quantized replay is schedule-dependent", workers, h, golden)
		}
	}
}

// TestInt16TraceCompression enforces the bandwidth claim: for the same
// signal (same seed, same trajectory, quantization is the only
// difference), the delta-coded int16 sweep trace must compress to at
// most a third of the float64 sweep trace. The 14-bit codes hold the
// same information in a quarter of the bits and delta coding exposes
// the static background to gzip, so in practice the ratio is ~4x.
func TestInt16TraceCompression(t *testing.T) {
	if testing.Short() {
		t.Skip("slow synthesis path")
	}
	traj := testWalk(1.5, 61)

	cfg64 := quantConfig(63)
	cfg64.Radio.ADCBits = 0
	dev64, err := NewDevice(cfg64)
	if err != nil {
		t.Fatal(err)
	}
	var buf64 bytes.Buffer
	tw64, err := trace.NewWriter(&buf64, dev64.SweepTraceHeader())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev64.RecordTo(tw64, traj); err != nil {
		t.Fatal(err)
	}
	if err := tw64.Close(); err != nil {
		t.Fatal(err)
	}

	data16, raw16 := recordSweeps16Bytes(t, quantConfig(63), traj)
	ratio := float64(buf64.Len()) / float64(len(data16))
	t.Logf("float64 sweeps %d B, int16 sweeps %d B compressed (%d B raw): %.2fx", buf64.Len(), len(data16), raw16, ratio)
	if ratio < 3 {
		t.Fatalf("int16 trace is only %.2fx smaller than the float64 equivalent, want >= 3x", ratio)
	}
	if int64(len(data16)) >= raw16 {
		t.Fatalf("compressed int16 trace (%d B) not smaller than its raw encoding (%d B)", len(data16), raw16)
	}
}

// TestInt16DeviceWithinTolerance is the quantized end-to-end precision
// oracle: a 14-bit quantized run must track the same trajectory as the
// full-precision float64 run to within a loose position tolerance —
// the per-bin quantization error (bounded analytically in
// fmcw.QuantErrorBound and far below the configured noise floor) must
// not destabilize the nonlinear tracking stages.
func TestInt16DeviceWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("slow synthesis path")
	}
	run := func(bits int) *RunResult {
		cfg := quantConfig(21)
		cfg.Radio.ADCBits = bits
		dev, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		walk := motion.NewRandomWalk(motion.DefaultWalkConfig(testRegion(), cfg.Subject.CenterHeight(), 4, 33))
		return dev.Run(walk)
	}
	rFull := run(0)
	rQuant := run(14)
	if rFull.Frames != rQuant.Frames {
		t.Fatalf("frame counts differ: %d vs %d", rFull.Frames, rQuant.Frames)
	}
	both, flips := 0, 0
	worst := 0.0
	for i := range rFull.Samples {
		a, b := rFull.Samples[i], rQuant.Samples[i]
		if a.Valid != b.Valid {
			flips++
			continue
		}
		if !a.Valid {
			continue
		}
		both++
		if d := a.Pos.Dist(b.Pos); d > worst {
			worst = d
		}
	}
	if both == 0 {
		t.Fatal("no frames valid under both paths")
	}
	t.Logf("%d frames compared, %d validity flips, worst position difference %.2g m", both, flips, worst)
	if flips > rFull.Frames/20 {
		t.Fatalf("%d/%d frames flipped validity under quantization", flips, rFull.Frames)
	}
	if worst > 0.25 {
		t.Fatalf("quantized run diverges from float64 by %.3f m", worst)
	}
}

// TestInt16RecordingGuards pins the API misuses to errors: a quantized
// device must not record float64 sweeps (the trace would claim a
// precision the pipeline never had), an unquantized device has no codes
// to write, a writer whose quantizer differs from the device's would
// dequantize every code wrong, and a quantized config without SlowSynth
// has no time-domain samples to digitize at all.
func TestInt16RecordingGuards(t *testing.T) {
	traj := testWalk(0.5, 5)

	qdev, err := NewDevice(quantConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quantConfig(5)
	cfg.Radio.ADCBits = 0
	pdev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rescaled := qdev.SweepTraceHeader()
	rescaled.ADCScale *= 2
	for _, tc := range []struct {
		name string
		dev  *Device
		h    trace.Header
	}{
		{"float64 sweeps from a quantized device", qdev, pdev.SweepTraceHeader()},
		{"int16 codes from an unquantized device", pdev, qdev.SweepTraceHeader()},
		{"int16 codes under another quantizer scale", qdev, rescaled},
	} {
		var buf bytes.Buffer
		tw, err := trace.NewWriter(&buf, tc.h)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tc.dev.RecordTo(tw, traj); err == nil {
			t.Fatalf("RecordTo accepted %s", tc.name)
		}
	}

	fast := quantConfig(5)
	fast.SlowSynth = false
	if _, err := NewDevice(fast); err == nil {
		t.Fatal("ADCBits without SlowSynth should be rejected at construction")
	}
}
