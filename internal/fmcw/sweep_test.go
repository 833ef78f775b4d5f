package fmcw

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"strings"
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

// perSweepSum is the float64 summing loop the two-sweep passes
// replaced, kept as their oracle: from +0, one pass per sweep in sweep
// order.
func perSweepSum(ns int, sweeps [][]float64) []float64 {
	sum := make([]float64, ns)
	for _, sw := range sweeps {
		for j, v := range sw {
			sum[j] += v
		}
	}
	return sum
}

// perSweepSum16 is the int16 summing loop and the separate dequantize
// pass the two-sweep passes replaced, kept as their oracle: one int32
// pass per sweep, then float64(sum) * scale.
func perSweepSum16(ns int, sweeps [][]int16, scale float64) []float64 {
	acc := make([]int32, ns)
	for _, sw := range sweeps {
		for j, c := range sw {
			acc[j] += int32(c)
		}
	}
	sum := make([]float64, ns)
	for j, v := range acc {
		sum[j] = float64(v) * scale
	}
	return sum
}

// sampleDraws are the float64 sweep samples the sum oracle test feeds
// both sides: Gaussian samples, signed zeros (the sum starts from +0,
// so +0 + -0 must stay +0), and special values throughout.
var sampleDraws = []struct {
	name string
	draw func(rng *rand.Rand) float64
}{
	{"gaussian", func(rng *rand.Rand) float64 { return rng.NormFloat64() }},
	{"signed zeros", func(rng *rand.Rand) float64 { return math.Copysign(0, rng.Float64()-0.5) }},
	{"specials", func(rng *rand.Rand) float64 {
		sign := rng.Float64() - 0.5
		switch rng.Intn(6) {
		case 0:
			return math.Copysign(0, sign)
		case 1:
			return math.Inf(int(math.Copysign(1, sign)))
		case 2:
			return math.NaN()
		case 3:
			return math.Copysign(math.SmallestNonzeroFloat64*float64(1+rng.Intn(1<<20)), sign)
		case 4:
			return math.Copysign(math.MaxFloat64/(1+rng.Float64()), sign)
		default:
			return rng.NormFloat64()
		}
	}},
}

// sameSum fails unless the frame body's sum matches the oracle's bit
// for bit, except that any NaN matches any NaN (which NaN payload an
// addition keeps is the hardware's and the compiler's choice).
func sameSum(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for j := range want {
		g, w := got[j], want[j]
		if math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: sample %d sums to %v (%#x), oracle %v (%#x)", label, j, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestSumPassesMatchPerSweepOracle pins both summing entry points to
// the per-sweep loops they replaced, bit for bit, at 0 to 8 sweeps per
// frame — so the two-sweep passes meet an odd tail and none — on both
// radio shapes, and on MaxSweepsPerFrame sweeps of rail codes and of
// random codes. The int16 sums run under several scales, subnormal and
// infinite among them.
func TestSumPassesMatchPerSweepOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	scales := []float64{1e-6, -0.25, math.SmallestNonzeroFloat64, math.Inf(1)}
	for _, cfg := range []Config{Default(), compactRadio()} {
		s := NewSynthesizer(cfg)
		ns := cfg.SamplesPerSweep()
		ws := s.NewSweepScratch()
		for count := 0; count <= 8; count++ {
			for _, d := range sampleDraws {
				sweeps := make([][]float64, count)
				for i := range sweeps {
					sweeps[i] = make([]float64, ns)
					for j := range sweeps[i] {
						sweeps[i][j] = d.draw(rng)
					}
				}
				s.ComplexFrameFromSweepsInto(nil, sweeps, ws)
				sameSum(t, fmt.Sprintf("%d samples, %d %s sweeps", ns, count, d.name), ws.sum, perSweepSum(ns, sweeps))
			}
			codes := make([][]int16, count)
			for i := range codes {
				codes[i] = make([]int16, ns)
				for j := range codes[i] {
					codes[i][j] = int16(rng.Intn(1 << 16))
				}
			}
			for _, scale := range scales {
				s.ComplexFrameFromSweepsInt16Into(nil, codes, scale, ws)
				sameSum(t, fmt.Sprintf("%d samples, %d int16 sweeps, scale %g", ns, count, scale), ws.sum, perSweepSum16(ns, codes, scale))
			}
		}
	}
	// MaxSweepsPerFrame sweeps: rail codes, each sample's sum ±1,024
	// full-scale codes, and random codes.
	s := NewSynthesizer(compactRadio())
	ns := s.cfg.SamplesPerSweep()
	rails := make([][]int16, MaxSweepsPerFrame)
	random := make([][]int16, MaxSweepsPerFrame)
	for i := range rails {
		rails[i] = make([]int16, ns)
		random[i] = make([]int16, ns)
		for j := range rails[i] {
			rails[i][j] = math.MaxInt16
			if (j/7)%2 == 1 {
				rails[i][j] = math.MinInt16
			}
			random[i][j] = int16(rng.Intn(1 << 16))
		}
	}
	ws := s.NewSweepScratch()
	for _, scale := range scales {
		s.ComplexFrameFromSweepsInt16Into(nil, rails, scale, ws)
		sameSum(t, fmt.Sprintf("rail codes, scale %g", scale), ws.sum, perSweepSum16(ns, rails, scale))
		s.ComplexFrameFromSweepsInt16Into(nil, random, scale, ws)
		sameSum(t, fmt.Sprintf("random codes, scale %g", scale), ws.sum, perSweepSum16(ns, random, scale))
	}
}

// frameDigest folds every bin's real and imaginary bits into a 64-bit
// FNV-1a hash, so a single-bit change anywhere in a frame moves it.
func frameDigest(h hash.Hash64, frame dsp.ComplexFrame) {
	var buf [16]byte
	for _, v := range frame {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(v)))
		h.Write(buf[:])
	}
}

// TestFrameBodyDigests pins both entry points of the frame body — the
// range-bin frame and the whole spectrum behind it — to digests
// captured before the fused FFT passes, the bit-reversing pack
// and the two-sweep sum passes went in, on seeded sweeps of both radio
// shapes at 1, 2, 5 and 8 sweeps per frame: odd and even counts, so
// both sum passes meet a tail sweep and none.
func TestFrameBodyDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Captured on amd64, where no multiply-add is fused; see
		// core's TestGoldenPipelineBitIdentical.
		t.Skipf("golden digests are amd64-specific (GOARCH=%s)", runtime.GOARCH)
	}
	cases := []struct {
		radio       string
		count       int
		f64, int16s uint64
	}{
		{"default", 1, 0xe486633daf47c636, 0x3de8b42ed979670f},
		{"default", 2, 0x18f5e65c531a0f65, 0x2d02054bed05c574},
		{"default", 5, 0xb7917d4e0eeb61f1, 0x9feedd2759a107db},
		{"default", 8, 0x2fdb2f97a4228174, 0x887cd4d97133b360},
		{"compact", 1, 0x3a51d7fa8eca6b53, 0x6b2fb8ed0ab0f364},
		{"compact", 2, 0xe0d116182a371a68, 0x61d234c24052d32f},
		{"compact", 5, 0x872bc67ae910d067, 0x5d395e986d2c8c9d},
		{"compact", 8, 0xf36f89e3da31c9da, 0xe4bdc5bcb7ad6518},
	}
	radios := map[string]Config{"default": Default(), "compact": compactRadio()}
	for _, c := range cases {
		cfg := radios[c.radio]
		s := NewSynthesizer(cfg)
		rng := rand.New(rand.NewSource(int64(c.count)))
		paths := testPaths(rng)
		q := NewQuantizer(14, ADCFullScale(paths, cfg.NoiseFloorWatts))
		sweeps := make([][]float64, c.count)
		codes := make([][]int16, c.count)
		for i := range sweeps {
			sweeps[i] = s.SynthesizeSweep(paths, rng)
			codes[i] = q.Quantize(nil, sweeps[i])
		}
		ws := s.NewSweepScratch()
		h := fnv.New64a()
		frameDigest(h, s.ComplexFrameFromSweepsInto(nil, sweeps, ws))
		frameDigest(h, ws.spec)
		f64 := h.Sum64()
		h.Reset()
		frameDigest(h, s.ComplexFrameFromSweepsInt16Into(nil, codes, q.Scale(), ws))
		frameDigest(h, ws.spec)
		i16 := h.Sum64()
		if f64 != c.f64 || i16 != c.int16s {
			t.Errorf("%s radio, %d sweeps: digests float64 %#016x int16 %#016x, golden %#016x %#016x — the frame body is no longer bit-identical",
				c.radio, c.count, f64, i16, c.f64, c.int16s)
		}
	}
}

// TestFrameBodyPanicsOnBadSweeps pins the frame body's contract: every
// sweep has the radio's length, and an int16 frame holds at most
// MaxSweepsPerFrame sweeps. Anything else is a programmer error, and the
// panic must be the frame body's own, naming the offending sweep — not
// a runtime bounds error, and not a silently truncated sweep. A bad
// sweep goes at each position of a 5-sweep frame: first and second of a
// summed pair, and the odd tail.
func TestFrameBodyPanicsOnBadSweeps(t *testing.T) {
	s := NewSynthesizer(compactRadio())
	ns := s.cfg.SamplesPerSweep()
	mustPanic := func(label, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", label)
			}
			if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, want) {
				t.Fatalf("%s: panic %v, want one starting %q", label, r, want)
			}
		}()
		f()
	}
	ws := s.NewSweepScratch()
	const count = 5
	for _, n := range []int{ns - 1, ns + 1, 0} {
		for bad := 0; bad < count; bad++ {
			sweeps := make([][]float64, count)
			codes := make([][]int16, count)
			for i := range sweeps {
				m := ns
				if i == bad {
					m = n
				}
				sweeps[i] = make([]float64, m)
				codes[i] = make([]int16, m)
			}
			want := fmt.Sprintf("fmcw: sweep %d has %d samples,", bad, n)
			mustPanic(fmt.Sprintf("float64 sweep %d of %d samples", bad, n), want, func() {
				s.ComplexFrameFromSweepsInto(nil, sweeps, ws)
			})
			mustPanic(fmt.Sprintf("int16 sweep %d of %d samples", bad, n), want, func() {
				s.ComplexFrameFromSweepsInt16Into(nil, codes, 1, ws)
			})
		}
	}
	over := make([][]int16, MaxSweepsPerFrame+1)
	for i := range over {
		over[i] = make([]int16, ns)
	}
	mustPanic("int16 frame past MaxSweepsPerFrame", "fmcw: int16 frame of", func() {
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
