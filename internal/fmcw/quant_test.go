package fmcw

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"witrack/internal/dsp"
)

// quantTestSetup builds a synthesizer and one frame drawn by
// quantFrame from seed.
func quantTestSetup(t *testing.T, bits int, seed int64) (*Synthesizer, *Quantizer, [][]float64, [][]int16) {
	t.Helper()
	cfg := Default()
	cfg.ADCBits = bits
	s := NewSynthesizer(cfg)
	q, sweeps, quant := quantFrame(s, rand.New(rand.NewSource(seed)))
	return s, q, sweeps, quant
}

// quantFrame draws one frame of float64 sweeps over a test path set and
// quantizes it with a realistic quantizer: the full scale is derived
// from the paths the way the recorder derives it from static paths.
func quantFrame(s *Synthesizer, rng *rand.Rand) (*Quantizer, [][]float64, [][]int16) {
	paths := testPaths(rng)
	q := NewQuantizer(s.cfg.ADCBits, ADCFullScale(paths, s.cfg.NoiseFloorWatts))
	sweeps := make([][]float64, s.cfg.SweepsPerFrame)
	quant := make([][]int16, s.cfg.SweepsPerFrame)
	for i := range sweeps {
		sweeps[i] = s.SynthesizeSweep(paths, rng)
		quant[i] = q.Quantize(nil, sweeps[i])
	}
	return q, sweeps, quant
}

// TestInt16SweepPathWithinBound is the quantization oracle at the frame
// level: over 8 frames per converter width, a frame computed from
// quantized sweeps through the int16 frame body must land within
// QuantErrorBound of the frame computed from the original float64
// sweeps — per-bin absolute error, the quantity the bound states — with
// zero clipped samples and a nonzero measured error (the oracle must be
// measuring a genuinely lossy path).
func TestInt16SweepPathWithinBound(t *testing.T) {
	const frames = 8
	for _, bits := range []int{12, 14, 16} {
		cfg := Default()
		cfg.ADCBits = bits
		s := NewSynthesizer(cfg)
		rng := rand.New(rand.NewSource(101))
		ws := s.NewSweepScratch()
		worstRatio := 0.0
		for frame := 0; frame < frames; frame++ {
			q, sweeps, quant := quantFrame(s, rng)
			want := s.ComplexFrameFromSweepsInto(nil, sweeps, ws)
			got := s.ComplexFrameFromSweepsInt16Into(nil, quant, q.Scale(), ws)
			bound := s.QuantErrorBound(q.Scale())
			worst := 0.0
			for i := range want {
				if e := cmplx.Abs(got[i] - want[i]); e > worst {
					worst = e
				}
			}
			if q.Clipped() != 0 {
				t.Fatalf("%d bits, frame %d: %d samples clipped — full scale is mis-derived", bits, frame, q.Clipped())
			}
			if worst > bound {
				t.Fatalf("%d bits, frame %d: quantization error %.3g exceeds the analytic bound %.3g", bits, frame, worst, bound)
			}
			if worst == 0 {
				t.Fatalf("%d bits, frame %d: int16 path is bit-identical to float64 — the oracle is not measuring quantization", bits, frame)
			}
			worstRatio = max(worstRatio, worst/bound)
		}
		t.Logf("%d bits: worst per-bin error over %d frames is %.3g of its bound", bits, frames, worstRatio)
	}
}

// TestInt16FusedMatchesStagedFrame pins the int16 frame body, which
// sums the codes exactly in int32 and dequantizes the sum once, to
// dequantizing every sweep into float64 and running
// ComplexFrameFromSweepsInto, within frameTol of the peak: the two
// differ only in where the sum is rounded.
func TestInt16FusedMatchesStagedFrame(t *testing.T) {
	for _, tc := range sweepCases {
		cfg := tc.cfg
		cfg.ADCBits = 14
		s := NewSynthesizer(cfg)
		rng := rand.New(rand.NewSource(102))
		ws := s.NewSweepScratch()
		for frame := 0; frame < 4; frame++ {
			paths := testPaths(rng)
			q := NewQuantizer(cfg.ADCBits, ADCFullScale(paths, cfg.NoiseFloorWatts))
			quant := make([][]int16, tc.count)
			for i := range quant {
				quant[i] = q.Quantize(nil, s.SynthesizeSweep(paths, rng))
			}
			want := s.ComplexFrameFromSweepsInto(nil, dequantize(quant, q.Scale()), s.NewSweepScratch())
			got := s.ComplexFrameFromSweepsInt16Into(nil, quant, q.Scale(), ws)
			closeToPeak(t, fmt.Sprintf("%s frame %d", tc.name, frame), got, want)
		}
	}
}

// TestQuantizerClipping pins the rail behavior: out-of-range samples
// clamp to the extreme codes symmetrically and are counted, in-range
// samples are not.
func TestQuantizerClipping(t *testing.T) {
	q := NewQuantizer(12, 1.0)
	codes := q.Quantize(nil, []float64{0, 0.5, -0.5, 2.0, -2.0, 0.99975})
	if q.Clipped() != 2 {
		t.Fatalf("clipped %d samples, want 2", q.Clipped())
	}
	maxCode := int16(1<<11 - 1)
	if codes[3] != maxCode || codes[4] != -maxCode {
		t.Fatalf("rail codes %d/%d, want ±%d", codes[3], codes[4], maxCode)
	}
	if codes[0] != 0 {
		t.Fatalf("zero quantized to %d", codes[0])
	}
	// Dequantization is exact: float64(code) * scale reproduces the
	// nearest representable amplitude within half a step.
	for i, v := range []float64{0, 0.5, -0.5} {
		if d := float64(codes[i]) * q.Scale(); math.Abs(d-v) > q.Scale()/2 {
			t.Fatalf("sample %g dequantized to %g (step %g)", v, d, q.Scale())
		}
	}
}

// TestQuantizerRejectsBadConfig pins the constructor contract.
func TestQuantizerRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		bits int
		fs   float64
	}{{10, 1}, {0, 1}, {16, 0}, {14, math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewQuantizer(%d, %g) accepted invalid input", tc.bits, tc.fs)
				}
			}()
			NewQuantizer(tc.bits, tc.fs)
		}()
	}
}

// TestADCBitsValidation pins the Config domain: 0 disables the path,
// the three hardware widths pass, anything else is rejected.
func TestADCBitsValidation(t *testing.T) {
	for _, bits := range []int{0, 12, 14, 16} {
		cfg := Default()
		cfg.ADCBits = bits
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ADCBits=%d rejected: %v", bits, err)
		}
	}
	for _, bits := range []int{-1, 8, 13, 24} {
		cfg := Default()
		cfg.ADCBits = bits
		if err := cfg.Validate(); err == nil {
			t.Fatalf("ADCBits=%d accepted", bits)
		}
	}
}

// TestInt16ScratchAllocFree extends the arena contract to the int16
// entry point: a warm scratch processes quantized frames with
// zero heap allocations.
func TestInt16ScratchAllocFree(t *testing.T) {
	s, q, _, quant := quantTestSetup(t, 14, 104)
	ws := s.NewSweepScratch()
	dst := make(dsp.ComplexFrame, s.cfg.RangeBins())
	dst = s.ComplexFrameFromSweepsInt16Into(dst, quant, q.Scale(), ws) // warm
	allocs := testing.AllocsPerRun(50, func() {
		dst = s.ComplexFrameFromSweepsInt16Into(dst, quant, q.Scale(), ws)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per warm quantized frame, want 0", allocs)
	}
}
