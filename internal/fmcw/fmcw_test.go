package fmcw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"witrack/internal/dsp"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestResolutionMatchesPaper(t *testing.T) {
	// Paper §4.1: "our sweep bandwidth allows us to obtain a distance
	// resolution of 8.8 cm".
	res := Default().Resolution()
	if math.Abs(res-0.0887) > 0.001 {
		t.Fatalf("resolution = %.4f m, want ~0.0887 m (8.8 cm)", res)
	}
}

func TestDerivedQuantities(t *testing.T) {
	cfg := Default()
	if got := cfg.Slope(); math.Abs(got-6.76e11) > 1e9 {
		t.Fatalf("slope = %g, want ~6.76e11 Hz/s", got)
	}
	if got := cfg.SamplesPerSweep(); got != 2500 {
		t.Fatalf("samples per sweep = %d, want 2500", got)
	}
	if got := cfg.FFTSize(); got != 4096 {
		t.Fatalf("fft size = %d, want 4096", got)
	}
	if got := cfg.FrameInterval(); math.Abs(got-0.0125) > 1e-12 {
		t.Fatalf("frame interval = %v, want 12.5 ms", got)
	}
	if got := cfg.CenterFreq(); math.Abs(got-6.405e9) > 1e6 {
		t.Fatalf("center freq = %g", got)
	}
	// Round-trip/beat inversion.
	d := 12.34
	if got := cfg.RoundTripForBeat(cfg.BeatFreq(d)); math.Abs(got-d) > 1e-9 {
		t.Fatalf("BeatFreq inversion: %v != %v", got, d)
	}
	// Range bins must cover MaxRange.
	if cover := float64(cfg.RangeBins()-1) * cfg.BinDistance(); cover < cfg.MaxRange {
		t.Fatalf("range bins cover only %v m < %v m", cover, cfg.MaxRange)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Bandwidth = 0 },
		func(c *Config) { c.SweepTime = -1 },
		func(c *Config) { c.SweepsPerFrame = 0 },
		func(c *Config) { c.TxPowerWatts = 0 },
		func(c *Config) { c.MaxRange = 0 },
		func(c *Config) { c.MaxRange = 1e6 }, // beat beyond Nyquist
		func(c *Config) { c.SampleRate = 1000 },
		// Sweeps past MaxSamplesPerSweep: one sample over, a rate a
		// forged trace could declare, and products that overflow an int.
		func(c *Config) { c.SampleRate = (MaxSamplesPerSweep + 1) / c.SweepTime },
		func(c *Config) { c.SampleRate = 1e9 },
		func(c *Config) { c.SweepTime = 1e300 },
		func(c *Config) { c.SampleRate = math.Inf(1) },
		func(c *Config) { c.SweepTime = math.NaN() },
	}
	for i, mutate := range bad {
		cfg := Default()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	atCap := Default()
	atCap.SampleRate = MaxSamplesPerSweep / atCap.SweepTime
	if n := atCap.SamplesPerSweep(); n != MaxSamplesPerSweep {
		t.Fatalf("at-cap radio has %d samples per sweep, want %d", n, MaxSamplesPerSweep)
	}
	if err := atCap.Validate(); err != nil {
		t.Fatalf("a radio at the sweep-length cap must validate: %v", err)
	}
}

func TestPhaseForIsWrappedAndDeterministic(t *testing.T) {
	cfg := Default()
	p1 := PhaseFor(cfg, 10)
	p2 := PhaseFor(cfg, 10)
	if p1 != p2 {
		t.Fatal("phase must be deterministic")
	}
	if p1 < 0 || p1 >= 2*math.Pi {
		t.Fatalf("phase %v not in [0, 2pi)", p1)
	}
	// A half-wavelength change in round trip flips the phase by ~pi.
	lambda := C / cfg.StartFreq
	p3 := PhaseFor(cfg, 10+lambda/2)
	diff := math.Abs(math.Mod(p3-p1+2*math.Pi, 2*math.Pi) - math.Pi)
	if diff > 1e-6 {
		t.Fatalf("half-wavelength phase flip off by %v rad", diff)
	}
}

func TestPathAmplitude(t *testing.T) {
	p := Path{PowerWatts: 2}
	if p.Amplitude() != 2 {
		t.Fatalf("amplitude = %v, want 2 (P = A^2/2)", p.Amplitude())
	}
}

// shortConfig is a cheap configuration for time-domain tests.
func shortConfig() Config {
	cfg := Default()
	cfg.SweepTime = 0.5e-3 // 500 samples per sweep
	cfg.Bandwidth = 1.69e9
	return cfg
}

func TestSweepSpectrumPeakAtExpectedBin(t *testing.T) {
	cfg := shortConfig()
	s := NewSynthesizer(cfg)
	rng := rand.New(rand.NewSource(1))
	d := 8.0 // meters round trip
	paths := []Path{{RoundTrip: d, PowerWatts: 1e-12, Phase: PhaseFor(cfg, d)}}
	frame := s.SynthesizeFrameSlow(paths, rng)
	peak, ok := dsp.StrongestPeak(frame)
	if !ok {
		t.Fatal("no peak found")
	}
	wantBin := cfg.BeatFreq(d) / cfg.BinHz()
	if math.Abs(float64(peak.Bin)-wantBin) > 1.5 {
		t.Fatalf("peak at bin %d, want ~%.1f", peak.Bin, wantBin)
	}
	// Sub-bin refinement should land within a third of a bin.
	refined := dsp.RefineParabolic(frame, peak.Bin)
	if math.Abs(refined-wantBin) > 0.5 {
		t.Fatalf("refined bin %.2f, want ~%.2f", refined, wantBin)
	}
}

func TestTwoReflectorsResolved(t *testing.T) {
	cfg := shortConfig()
	s := NewSynthesizer(cfg)
	rng := rand.New(rand.NewSource(2))
	d1, d2 := 6.0, 10.0
	paths := []Path{
		{RoundTrip: d1, PowerWatts: 1e-12, Phase: PhaseFor(cfg, d1)},
		{RoundTrip: d2, PowerWatts: 1e-12, Phase: PhaseFor(cfg, d2)},
	}
	frame := s.SynthesizeFrameSlow(paths, rng)
	thresh := 8 * s.NoiseBinSigma()
	peaks := dsp.NeighborhoodMaximaInto(frame, thresh, 1, nil)
	if len(peaks) < 2 {
		t.Fatalf("expected two resolved peaks, got %+v", peaks)
	}
	b1 := cfg.BeatFreq(d1) / cfg.BinHz()
	b2 := cfg.BeatFreq(d2) / cfg.BinHz()
	found1, found2 := false, false
	for _, p := range peaks {
		if math.Abs(float64(p.Bin)-b1) < 2 {
			found1 = true
		}
		if math.Abs(float64(p.Bin)-b2) < 2 {
			found2 = true
		}
	}
	if !found1 || !found2 {
		t.Fatalf("peaks %+v do not cover both reflectors (bins %.1f, %.1f)", peaks, b1, b2)
	}
}

// TestFastMatchesSlowSpectrum is the equivalence property the fast
// synthesis path relies on (see Synthesizer): the frequency-domain
// synthesizer must produce the same frame as windowed-FFT time-domain
// synthesis. With noise disabled-in-effect (tiny floor), the two must
// agree to high precision.
func TestFastMatchesSlowSpectrum(t *testing.T) {
	cfg := shortConfig()
	cfg.NoiseFloorWatts = 1e-30 // effectively noiseless
	s := NewSynthesizer(cfg)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nPaths := 1 + rng.Intn(4)
		paths := make([]Path, nPaths)
		for i := range paths {
			d := 3 + rng.Float64()*24
			paths[i] = Path{
				RoundTrip:  d,
				PowerWatts: 1e-13 * (0.2 + rng.Float64()),
				Phase:      PhaseFor(cfg, d),
			}
		}
		slow := s.SynthesizeFrameSlow(paths, rng)
		fast := s.SynthesizeFrame(paths, rng)
		// Compare where the signal is meaningful; the fast path truncates
		// the kernel at 60 dB down, so use a relative tolerance against
		// the frame's max.
		max := 0.0
		for _, v := range slow {
			if v > max {
				max = v
			}
		}
		for k := range slow {
			if math.Abs(slow[k]-fast[k]) > 0.02*max+1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestFastNoiseStatistics verifies the fast path's noise floor matches
// the analytic per-bin sigma.
func TestFastNoiseStatistics(t *testing.T) {
	cfg := shortConfig()
	s := NewSynthesizer(cfg)
	rng := rand.New(rand.NewSource(3))
	var sum, sumSq float64
	n := 0
	for trial := 0; trial < 50; trial++ {
		frame := s.SynthesizeFrame(nil, rng)
		for _, v := range frame {
			sum += v
			sumSq += v * v
			n++
		}
	}
	// |N(0,s)+iN(0,s)| has mean s*sqrt(pi/2).
	meanMag := sum / float64(n)
	want := s.NoiseBinSigma() * math.Sqrt(math.Pi/2)
	if math.Abs(meanMag-want) > 0.05*want {
		t.Fatalf("noise magnitude mean %g, want %g", meanMag, want)
	}
}

// TestFastMatchesSlowComplex extends the equivalence check to phase:
// the complex spectra of the two synthesis levels must agree bin by bin.
func TestFastMatchesSlowComplex(t *testing.T) {
	cfg := shortConfig()
	cfg.NoiseFloorWatts = 1e-30
	s := NewSynthesizer(cfg)
	rng := rand.New(rand.NewSource(77))
	d := 9.7
	paths := []Path{{RoundTrip: d, PowerWatts: 1e-13, Phase: PhaseFor(cfg, d)}}
	slow := s.SynthesizeComplexFrameSlow(paths, rng)
	fast := s.SynthesizeComplexFrame(paths, rng)
	max := 0.0
	for _, v := range slow.Mag() {
		if v > max {
			max = v
		}
	}
	for k := range slow {
		re := math.Abs(real(slow[k]) - real(fast[k]))
		im := math.Abs(imag(slow[k]) - imag(fast[k]))
		if re > 0.02*max || im > 0.02*max {
			t.Fatalf("bin %d: slow %v fast %v", k, slow[k], fast[k])
		}
	}
}

// TestBackgroundSubtractionPhysics verifies the end-to-end §4.2 story on
// synthesized frames: a static reflector cancels under complex frame
// subtraction while a slightly moved human survives.
func TestBackgroundSubtractionPhysics(t *testing.T) {
	cfg := shortConfig()
	s := NewSynthesizer(cfg)
	rng := rand.New(rand.NewSource(8))
	staticPath := Path{RoundTrip: 6, PowerWatts: 1e-10, Phase: PhaseFor(cfg, 6)}
	humanAt := func(d float64) Path {
		return Path{RoundTrip: d, PowerWatts: 1e-13, Phase: PhaseFor(cfg, d)}
	}
	// Human moves 1.25 cm between frames (1 m/s for 12.5 ms).
	f1 := s.SynthesizeComplexFrame([]Path{staticPath, humanAt(12.0)}, rng)
	f2 := s.SynthesizeComplexFrame([]Path{staticPath, humanAt(12.0125)}, rng)
	diff := f2.SubMag(f1)

	staticBin := int(cfg.BeatFreq(6)/cfg.BinHz() + 0.5)
	humanBin := int(cfg.BeatFreq(12)/cfg.BinHz() + 0.5)
	// Raw frame: static dominates (the Flash Effect).
	raw := f1.Mag()
	if raw[staticBin] < raw[humanBin]*10 {
		t.Fatalf("static reflector should dominate raw frame: %v vs %v", raw[staticBin], raw[humanBin])
	}
	// After subtraction: human dominates.
	if diff[humanBin] < diff[staticBin] {
		t.Fatalf("human %v should beat static residue %v after subtraction", diff[humanBin], diff[staticBin])
	}
}

func TestFrameAveragingBoostsSNR(t *testing.T) {
	// With averaging of k sweeps, the noise floor should drop ~sqrt(k)
	// while the signal stays put (paper §4.3).
	cfg := shortConfig()
	one := cfg
	one.SweepsPerFrame = 1
	s5 := NewSynthesizer(cfg)
	s1 := NewSynthesizer(one)
	ratio := s1.NoiseBinSigma() / s5.NoiseBinSigma()
	if math.Abs(ratio-math.Sqrt(5)) > 1e-9 {
		t.Fatalf("noise reduction %v, want sqrt(5)", ratio)
	}
	if s1.PeakMagnitude(1e-12) != s5.PeakMagnitude(1e-12) {
		t.Fatal("signal magnitude must not depend on averaging count")
	}
}

func TestNewSynthesizerPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := Default()
	cfg.Bandwidth = 0
	NewSynthesizer(cfg)
}

func BenchmarkSynthesizeFrameFast(b *testing.B) {
	cfg := Default()
	s := NewSynthesizer(cfg)
	rng := rand.New(rand.NewSource(1))
	paths := make([]Path, 12)
	for i := range paths {
		d := 4 + float64(i)
		paths[i] = Path{RoundTrip: d, PowerWatts: 1e-13, Phase: PhaseFor(cfg, d)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SynthesizeFrame(paths, rng)
	}
}

func BenchmarkSynthesizeFrameSlow(b *testing.B) {
	cfg := Default()
	s := NewSynthesizer(cfg)
	rng := rand.New(rand.NewSource(1))
	paths := make([]Path, 12)
	for i := range paths {
		d := 4 + float64(i)
		paths[i] = Path{RoundTrip: d, PowerWatts: 1e-13, Phase: PhaseFor(cfg, d)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SynthesizeFrameSlow(paths, rng)
	}
}

// TestSplitSynthesisBitIdentical is the RNG contract the streaming
// pipeline depends on: drawing the noise frame first (NoiseFrame) and
// computing the deterministic spectrum separately (PathSpectrum +
// AddNoise) must consume the generator identically and reproduce
// SynthesizeComplexFrame bit for bit.
func TestSplitSynthesisBitIdentical(t *testing.T) {
	cfg := Default()
	s := NewSynthesizer(cfg)
	paths := []Path{
		{RoundTrip: 8.0, PowerWatts: 1e-9, Phase: 0.3},
		{RoundTrip: 12.5, PowerWatts: 4e-10, Phase: 2.1},
		{RoundTrip: 21.7, PowerWatts: 9e-11, Phase: 5.9},
	}
	for trial := 0; trial < 4; trial++ {
		fused := s.SynthesizeComplexFrame(paths, rand.New(rand.NewSource(int64(trial+1))))

		rng := rand.New(rand.NewSource(int64(trial + 1)))
		noise := s.NoiseFrame(rng, nil)
		split := s.PathSpectrum(paths, nil)
		AddNoise(split, noise)

		if len(fused) != len(split) {
			t.Fatalf("length mismatch: %d vs %d", len(fused), len(split))
		}
		for k := range fused {
			if fused[k] != split[k] {
				t.Fatalf("trial %d bin %d: fused %v != split %v", trial, k, fused[k], split[k])
			}
		}
	}
}

// TestPathSpectrumReusesScratch checks the scratch contract: a
// wrong-length dst is replaced, a right-length dst is zeroed and reused.
func TestPathSpectrumReusesScratch(t *testing.T) {
	cfg := Default()
	s := NewSynthesizer(cfg)
	paths := []Path{{RoundTrip: 9.0, PowerWatts: 1e-9, Phase: 1.0}}
	fresh := s.PathSpectrum(paths, nil)

	scratch := make(dsp.ComplexFrame, cfg.RangeBins())
	for i := range scratch {
		scratch[i] = complex(99, -99) // stale garbage must be cleared
	}
	reused := s.PathSpectrum(paths, scratch)
	if &reused[0] != &scratch[0] {
		t.Fatal("right-length scratch was not reused")
	}
	for k := range fresh {
		if fresh[k] != reused[k] {
			t.Fatalf("bin %d: fresh %v != reused %v", k, fresh[k], reused[k])
		}
	}
	if short := s.PathSpectrum(paths, make(dsp.ComplexFrame, 3)); len(short) != cfg.RangeBins() {
		t.Fatalf("wrong-length dst not replaced: len=%d", len(short))
	}
}

// TestSweepOscillatorMatchesTrig pins the phasor tone generator against
// the direct per-sample trig evaluation it replaced: with the noise
// floor effectively disabled, every sample must agree to ~1e-12 of the
// tone amplitude (the resynchronized rotation recurrence drifts less
// than 1e-14 relative between resyncs).
func TestSweepOscillatorMatchesTrig(t *testing.T) {
	cfg := shortConfig()
	cfg.NoiseFloorWatts = 1e-300
	s := NewSynthesizer(cfg)
	rng := rand.New(rand.NewSource(3))
	paths := []Path{
		{RoundTrip: 7.3, PowerWatts: 1e-12, Phase: PhaseFor(cfg, 7.3)},
		{RoundTrip: 19.8, PowerWatts: 3e-13, Phase: PhaseFor(cfg, 19.8)},
	}
	got := s.SynthesizeSweep(paths, rng)
	ns := cfg.SamplesPerSweep()
	dt := 1 / cfg.SampleRate
	amp := 0.0
	want := make([]float64, ns)
	for _, p := range paths {
		a := p.Amplitude()
		amp += a
		omega := 2 * math.Pi * cfg.BeatFreq(p.RoundTrip) * dt
		for i := 0; i < ns; i++ {
			want[i] += a * math.Cos(omega*float64(i)+p.Phase)
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*amp {
			t.Fatalf("sample %d: oscillator %g vs trig %g (amp %g)", i, got[i], want[i], amp)
		}
	}
}

// TestSweepsIntoMatchesLegacyComplexFFT checks the RFFT sweep path
// against the processing it replaced: window each sweep, full complex
// FFT, truncate, average. The real-input transform must reproduce it to
// near machine precision.
func TestSweepsIntoMatchesLegacyComplexFFT(t *testing.T) {
	cfg := shortConfig()
	s := NewSynthesizer(cfg)
	rng := rand.New(rand.NewSource(21))
	paths := []Path{
		{RoundTrip: 9.1, PowerWatts: 1e-12, Phase: PhaseFor(cfg, 9.1)},
		{RoundTrip: 15.6, PowerWatts: 5e-13, Phase: PhaseFor(cfg, 15.6)},
	}
	sweeps := make([][]float64, cfg.SweepsPerFrame)
	for i := range sweeps {
		sweeps[i] = s.SynthesizeSweep(paths, rng)
	}

	// Legacy reference: window + complex FFT + truncate + average.
	n := cfg.FFTSize()
	nb := cfg.RangeBins()
	want := make(dsp.ComplexFrame, nb)
	w := dsp.Hann(cfg.SamplesPerSweep())
	for _, sw := range sweeps {
		buf := make([]complex128, n)
		for i, v := range sw {
			buf[i] = complex(v*w[i], 0)
		}
		dsp.PlanFor(n).Transform(buf)
		for i := 0; i < nb; i++ {
			want[i] += buf[i]
		}
	}
	inv := complex(1/float64(len(sweeps)), 0)
	for i := range want {
		want[i] *= inv
	}

	got := s.FrameFromSweeps(sweeps)
	scale := 0.0
	for _, v := range want {
		if m := real(v)*real(v) + imag(v)*imag(v); m > scale {
			scale = m
		}
	}
	tol := 1e-11 * math.Sqrt(scale)
	gotC := s.ComplexFrameFromSweeps(sweeps)
	for i := range want {
		re := math.Abs(real(gotC[i]) - real(want[i]))
		im := math.Abs(imag(gotC[i]) - imag(want[i]))
		if re > tol || im > tol {
			t.Fatalf("bin %d: rfft path %v vs complex-fft path %v", i, gotC[i], want[i])
		}
		if math.Abs(got[i]-cmplxAbs(want[i])) > tol {
			t.Fatalf("bin %d magnitude: %v vs %v", i, got[i], cmplxAbs(want[i]))
		}
	}
}

func cmplxAbs(v complex128) float64 { return math.Hypot(real(v), imag(v)) }

// TestSlowSynthesisIntoBitIdenticalAndAllocFree checks the scratch
// contract of the slow path: the Into entry points reproduce the
// allocating ones bit for bit under the same seed, and a warm scratch
// makes steady-state frame synthesis allocation-free.
func TestSlowSynthesisIntoBitIdenticalAndAllocFree(t *testing.T) {
	cfg := shortConfig()
	s := NewSynthesizer(cfg)
	paths := []Path{{RoundTrip: 11.0, PowerWatts: 1e-12, Phase: PhaseFor(cfg, 11.0)}}

	want := s.SynthesizeComplexFrameSlow(paths, rand.New(rand.NewSource(5)))
	ws := s.NewSweepScratch()
	dst := make(dsp.ComplexFrame, cfg.RangeBins())
	got := s.SynthesizeComplexFrameSlowInto(dst, paths, rand.New(rand.NewSource(5)), ws)
	if &got[0] != &dst[0] {
		t.Fatal("right-length dst was not reused")
	}
	for k := range want {
		if want[k] != got[k] {
			t.Fatalf("bin %d: allocating %v != scratch %v", k, want[k], got[k])
		}
	}

	rng := rand.New(rand.NewSource(6))
	if a := testing.AllocsPerRun(10, func() {
		s.SynthesizeComplexFrameSlowInto(dst, paths, rng, ws)
	}); a != 0 {
		t.Fatalf("warm slow synthesis allocates %v per frame", a)
	}
}
