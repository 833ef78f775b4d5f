package fmcw

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"witrack/internal/dsp"
)

// testPaths builds a realistic path set: a strong static reflector plus
// two weaker movers, the shape of a through-wall frame.
func testPaths(rng *rand.Rand) []Path {
	mk := func(rt, pow float64) Path {
		return Path{RoundTrip: rt, PowerWatts: pow, Phase: rng.Float64() * 2 * math.Pi}
	}
	return []Path{
		mk(4+rng.Float64(), 1e-6),
		mk(8+3*rng.Float64(), 1e-9),
		mk(10+4*rng.Float64(), 3e-10),
	}
}

// compactRadio is the compact corpus radio: eight 320-sample sweeps
// per frame on an 11 m range.
func compactRadio() Config {
	cfg := Default()
	cfg.SampleRate = 128e3
	cfg.MaxRange = 11
	cfg.SweepsPerFrame = 8
	return cfg
}

// perSweepFrame is the oracle for the frame body: the per-sweep
// processing that averaging before the FFT replaced — RealTransform
// each sweep, sum the spectra in sweep order, scale by 1/n.
func perSweepFrame(s *Synthesizer, sweeps [][]float64) dsp.ComplexFrame {
	want := make(dsp.ComplexFrame, s.cfg.RangeBins())
	var spec []complex128
	for _, sw := range sweeps {
		spec = s.plan.RealTransform(spec, sw, s.window)
		for i := range want {
			want[i] += spec[i]
		}
	}
	inv := complex(1/float64(len(sweeps)), 0)
	for i := range want {
		want[i] *= inv
	}
	return want
}

// dequantize widens int16 sweeps the way the quantizer defines their
// values: float64(code) * scale.
func dequantize(codes [][]int16, scale float64) [][]float64 {
	out := make([][]float64, len(codes))
	for i, sw := range codes {
		out[i] = make([]float64, len(sw))
		for j, c := range sw {
			out[i][j] = float64(c) * scale
		}
	}
	return out
}

// frameTol is the differential tolerance of the frame body, relative to
// the frame's peak bin magnitude. Averaging before the FFT rounds the
// sum of the sweeps instead of the sum of their spectra, so the two
// orders differ by a few ulps of the peak (at most 2.9e-16 measured on
// the repo's radios); 1e-12 leaves wide headroom while still catching
// any real arithmetic change.
const frameTol = 1e-12

// closeToPeak fails unless every bin of got is within frameTol × the
// peak magnitude of want.
func closeToPeak(t *testing.T, label string, got, want dsp.ComplexFrame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bins, want %d", label, len(got), len(want))
	}
	peak := 0.0
	for _, v := range want {
		peak = math.Max(peak, cmplx.Abs(v))
	}
	if peak == 0 {
		t.Fatalf("%s: all-zero reference frame", label)
	}
	worst := 0.0
	for i := range want {
		worst = math.Max(worst, cmplx.Abs(got[i]-want[i]))
	}
	t.Logf("%s: largest |Δ|/peak %.3g", label, worst/peak)
	if worst > frameTol*peak {
		t.Fatalf("%s: largest |Δ|/peak %.3g exceeds %g", label, worst/peak, frameTol)
	}
}

// sweepCase is a frame shape: a radio and the sweeps in its frame.
type sweepCase struct {
	name  string
	cfg   Config
	count int
}

// sweepCases are the frame shapes the differential tests cover: the
// paper's radio (5 × 2,500), the compact radio (8 × 320), and a
// one-sweep frame on each.
var sweepCases = []sweepCase{
	{"default", Default(), 5},
	{"default 1 sweep", Default(), 1},
	{"compact", compactRadio(), 8},
	{"compact 1 sweep", compactRadio(), 1},
}

// TestFloat64SweepPathUnchangedByBatching pins the float64 frame body,
// which averages the sweeps before one FFT, to the per-sweep oracle
// (one FFT per sweep, spectra averaged) within frameTol of the peak.
// The two differ only in where the sum is rounded.
func TestFloat64SweepPathUnchangedByBatching(t *testing.T) {
	for _, tc := range sweepCases {
		s := NewSynthesizer(tc.cfg)
		rng := rand.New(rand.NewSource(7))
		ws := s.NewSweepScratch()
		for frame := 0; frame < 4; frame++ {
			paths := testPaths(rng)
			sweeps := make([][]float64, tc.count)
			for i := range sweeps {
				sweeps[i] = s.SynthesizeSweep(paths, rng)
			}
			got := s.ComplexFrameFromSweepsInto(nil, sweeps, ws)
			closeToPeak(t, fmt.Sprintf("%s frame %d", tc.name, frame), got, perSweepFrame(s, sweeps))
		}
	}
}

// TestInt16SumIsExactAtTheRails fills a frame of MaxSweepsPerFrame
// sweeps with rail codes, the largest sum magnitudes an int16 frame can
// produce: the int32 sum must not overflow, so the frame matches the
// per-sweep oracle on the dequantized sweeps.
func TestInt16SumIsExactAtTheRails(t *testing.T) {
	cfg := compactRadio()
	s := NewSynthesizer(cfg)
	ns := cfg.SamplesPerSweep()
	codes := make([][]int16, MaxSweepsPerFrame)
	for i := range codes {
		codes[i] = make([]int16, ns)
		for j := range codes[i] {
			// A sign pattern per sample, shared by every sweep, so each
			// sample's sum is ±MaxSweepsPerFrame full-scale codes.
			codes[i][j] = math.MaxInt16
			if (j/7)%2 == 1 {
				codes[i][j] = math.MinInt16
			}
		}
	}
	const scale = 1e-6
	got := s.ComplexFrameFromSweepsInt16Into(nil, codes, scale, s.NewSweepScratch())
	closeToPeak(t, "rail codes", got, perSweepFrame(s, dequantize(codes, scale)))
	// The mean sweep is the rail pattern itself.
	closeToPeak(t, "rail codes vs one sweep", got, perSweepFrame(s, dequantize(codes[:1], scale)))
}

// TestFrameBodyPanicsOnBadSweeps pins the frame body's contract: every
// sweep has the radio's length, and an int16 frame holds at most
// MaxSweepsPerFrame sweeps. Anything else is a programmer error.
func TestFrameBodyPanicsOnBadSweeps(t *testing.T) {
	s := NewSynthesizer(compactRadio())
	ns := s.cfg.SamplesPerSweep()
	mustPanic := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", label)
			}
		}()
		f()
	}
	ws := s.NewSweepScratch()
	for _, n := range []int{ns - 1, ns + 1, 0} {
		mustPanic(fmt.Sprintf("float64 sweep of %d samples", n), func() {
			s.ComplexFrameFromSweepsInto(nil, [][]float64{make([]float64, ns), make([]float64, n)}, ws)
		})
		mustPanic(fmt.Sprintf("int16 sweep of %d samples", n), func() {
			s.ComplexFrameFromSweepsInt16Into(nil, [][]int16{make([]int16, n)}, 1, ws)
		})
	}
	over := make([][]int16, MaxSweepsPerFrame+1)
	for i := range over {
		over[i] = make([]int16, ns)
	}
	mustPanic("int16 frame past MaxSweepsPerFrame", func() {
		s.ComplexFrameFromSweepsInt16Into(nil, over, 1, ws)
	})
}

// BenchmarkFrameFromSweeps measures the frame body on a warm scratch,
// one antenna-frame per iteration (so ns/op and allocs/op are per
// frame), on both sample types and both radio shapes.
func BenchmarkFrameFromSweeps(b *testing.B) {
	for _, radio := range []struct {
		name string
		cfg  Config
	}{{"default", Default()}, {"compact", compactRadio()}} {
		cfg := radio.cfg
		cfg.ADCBits = 14
		s := NewSynthesizer(cfg)
		rng := rand.New(rand.NewSource(9))
		paths := testPaths(rng)
		q := NewQuantizer(cfg.ADCBits, ADCFullScale(paths, cfg.NoiseFloorWatts))
		sweeps := make([][]float64, cfg.SweepsPerFrame)
		codes := make([][]int16, cfg.SweepsPerFrame)
		for i := range sweeps {
			sweeps[i] = s.SynthesizeSweep(paths, rng)
			codes[i] = q.Quantize(nil, sweeps[i])
		}
		ws := s.NewSweepScratch()
		dst := make(dsp.ComplexFrame, cfg.RangeBins())
		b.Run(radio.name+"/float64", func(b *testing.B) {
			b.ReportAllocs()
			dst = s.ComplexFrameFromSweepsInto(dst, sweeps, ws) // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = s.ComplexFrameFromSweepsInto(dst, sweeps, ws)
			}
		})
		b.Run(radio.name+"/int16", func(b *testing.B) {
			b.ReportAllocs()
			dst = s.ComplexFrameFromSweepsInt16Into(dst, codes, q.Scale(), ws) // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = s.ComplexFrameFromSweepsInt16Into(dst, codes, q.Scale(), ws)
			}
		})
	}
}

// TestSweepScratchAllocFree verifies the arena contract: a warm
// scratch processes frames with zero heap allocations.
func TestSweepScratchAllocFree(t *testing.T) {
	s := NewSynthesizer(Default())
	rng := rand.New(rand.NewSource(3))
	paths := testPaths(rng)
	sweeps := make([][]float64, s.cfg.SweepsPerFrame)
	for i := range sweeps {
		sweeps[i] = s.SynthesizeSweep(paths, rng)
	}
	ws := s.NewSweepScratch()
	dst := make(dsp.ComplexFrame, s.cfg.RangeBins())
	dst = s.ComplexFrameFromSweepsInto(dst, sweeps, ws) // warm
	allocs := testing.AllocsPerRun(50, func() {
		dst = s.ComplexFrameFromSweepsInto(dst, sweeps, ws)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per warm frame, want 0", allocs)
	}
}

// TestSweepScratchResizesArena pins the scratch contract across frame
// shapes: a scratch that has just processed a frame with more or fewer
// sweeps than SweepsPerFrame carries nothing over, so both that frame
// and the next normal one match a fresh scratch bit for bit on either
// entry point.
func TestSweepScratchResizesArena(t *testing.T) {
	cfg := Default()
	cfg.ADCBits = 14
	s := NewSynthesizer(cfg)
	rng := rand.New(rand.NewSource(4))
	paths := testPaths(rng)
	q := NewQuantizer(cfg.ADCBits, ADCFullScale(paths, cfg.NoiseFloorWatts))
	frame := func(count int) ([][]float64, [][]int16) {
		sweeps := make([][]float64, count)
		codes := make([][]int16, count)
		for i := range sweeps {
			sweeps[i] = s.SynthesizeSweep(paths, rng)
			codes[i] = q.Quantize(nil, sweeps[i])
		}
		return sweeps, codes
	}
	same := func(label string, got, want dsp.ComplexFrame) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: bin %d is %v on the reused scratch, %v on a fresh one", label, i, got[i], want[i])
			}
		}
	}
	ws := s.NewSweepScratch()
	normal, normal16 := frame(cfg.SweepsPerFrame)
	for _, count := range []int{1, cfg.SweepsPerFrame + 3} {
		odd, odd16 := frame(count)
		label := fmt.Sprintf("%d sweeps", count)
		same(label, s.ComplexFrameFromSweepsInto(nil, odd, ws), s.ComplexFrameFromSweepsInto(nil, odd, s.NewSweepScratch()))
		same(label+" then normal", s.ComplexFrameFromSweepsInto(nil, normal, ws), s.ComplexFrameFromSweepsInto(nil, normal, s.NewSweepScratch()))
		same(label+" int16", s.ComplexFrameFromSweepsInt16Into(nil, odd16, q.Scale(), ws),
			s.ComplexFrameFromSweepsInt16Into(nil, odd16, q.Scale(), s.NewSweepScratch()))
		same(label+" int16 then normal", s.ComplexFrameFromSweepsInt16Into(nil, normal16, q.Scale(), ws),
			s.ComplexFrameFromSweepsInt16Into(nil, normal16, q.Scale(), s.NewSweepScratch()))
	}
}
