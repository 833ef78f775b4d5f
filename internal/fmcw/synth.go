package fmcw

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"

	"witrack/internal/dsp"
)

// Synthesizer turns lists of propagation paths into the FFT frames the
// tracking pipeline consumes. It supports two equivalent levels:
//
//   - SynthesizeSweep/FrameFromSweeps: generate the time-domain baseband
//     signal sample by sample, then window and FFT it — the processing
//     of the paper's §7 implementation.
//   - SynthesizeFrame: generate the windowed FFT frame directly in the
//     frequency domain using the window's spectral kernel. This is
//     hundreds of times faster and statistically identical (the signal
//     part is the same deterministic spectrum; the noise part is the
//     same complex Gaussian), which makes the paper's hundred-minute
//     evaluation workloads tractable in a test suite. Equivalence is
//     property-tested in synth_test.go.
//
// Both levels average SweepsPerFrame sweeps coherently (complex average,
// then magnitude), implementing the paper's 5-sweep averaging that boosts
// human reflections against noise (§4.3). The time-domain level averages
// the sweeps before its one FFT per frame, which by linearity of the DFT
// is the average of the sweep spectra.
type Synthesizer struct {
	cfg    Config
	window []float64
	// winSum is sum(w[n]) — the DC gain of the window.
	winSum float64
	// noisePerComp is the per-component (Re/Im) standard deviation of
	// FFT-bin noise for a single sweep.
	noisePerComp float64
	// kernel is the window's complex spectral kernel K(delta) sampled on
	// a fine grid, shared read-only by every synthesizer of the same
	// radio shape (see kernelFor); kernelStep is the grid spacing in
	// bins.
	kernel     []complex128
	kernelHalf float64 // kernel covers delta in [-kernelHalf, +kernelHalf]
	kernelStep float64
	// plan is the shared FFT plan for the sweep FFT size; the time-domain
	// path runs the real-input transform against it (the input is a real
	// baseband signal, so conjugate symmetry halves the butterfly work).
	plan *dsp.Plan
}

// SweepScratch owns the reusable buffers of the time-domain sweep path:
// the frame's sweep sums, the one spectrum they are transformed into,
// and (for the full slow-synthesis entry points) the per-sweep sample
// buffers. A scratch must be owned by exactly one goroutine — each
// pipeline worker holds its own, while the synthesizer's immutable FFT
// plan is shared by all of them.
type SweepScratch struct {
	// sum is the frame's sweeps summed sample by sample, the input of
	// the frame's one transform.
	sum []float64
	// sum16 is the exact int32 sum of an int16 frame's codes.
	sum16 []int32
	// spec is the FFTSize/2 + 1 bins of the summed sweep's spectrum.
	spec []complex128
	// sweeps are SweepsPerFrame time-domain sample buffers.
	sweeps [][]float64
}

// NewSweepScratch builds an empty scratch. Its buffers are sized by the
// first frame that uses them and reused from then on, so the
// steady-state path allocates nothing, and workers that only transform
// externally supplied sweeps never pay for the sample buffers of the
// slow-synthesis entry points.
func (s *Synthesizer) NewSweepScratch() *SweepScratch {
	return &SweepScratch{}
}

// Precision admits a single value, the float64 sweep path, so no
// arithmetic width can be chosen.
//
// Deprecated: the sweep path always runs in float64.
type Precision struct{}

// NewSweepScratchPrecision is NewSweepScratch.
//
// Deprecated: use NewSweepScratch.
func (s *Synthesizer) NewSweepScratchPrecision(Precision) *SweepScratch {
	return s.NewSweepScratch()
}

// kernelHalfWidth is how many bins of spectral leakage the fast path
// keeps on each side of a tone. Beyond ~8 bins a Hann kernel is > 60 dB
// down — far below the noise floor of any realistic configuration.
const kernelHalfWidth = 8.0

// kernelOversample is the kernel table resolution in samples per bin.
const kernelOversample = 32

// NewSynthesizer builds a synthesizer for the given configuration.
// It panics if the configuration is invalid (programmer error).
func NewSynthesizer(cfg Config) *Synthesizer {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ns := cfg.SamplesPerSweep()
	w := dsp.Hann(ns)
	s := &Synthesizer{cfg: cfg, window: w}
	sumW, sumW2 := 0.0, 0.0
	for _, v := range w {
		sumW += v
		sumW2 += v * v
	}
	s.winSum = sumW
	sigma := math.Sqrt(cfg.NoiseFloorWatts)
	s.noisePerComp = sigma * math.Sqrt(sumW2/2)

	n := cfg.FFTSize()
	s.kernel = kernelFor(w, n)
	s.kernelHalf = kernelHalfWidth
	s.kernelStep = 1.0 / kernelOversample
	s.plan = dsp.PlanFor(n)
	return s
}

// kernelCacheCap bounds how many radio shapes the kernel cache holds.
// The repo's radios come in two shapes; a replayed trace may name any
// shape Validate accepts, so shapes past the cap get a private table
// instead of growing the cache.
const kernelCacheCap = 8

// kernelCache holds one immutable window-kernel table per radio shape
// (samples per sweep, FFT size), the only inputs the table depends on,
// so every synthesizer of one radio shares one table the way every
// transform of one size shares a dsp.PlanFor plan.
var kernelCache struct {
	sync.Mutex
	tables map[[2]int]*kernelEntry
}

// kernelEntry builds its table once, outside the cache lock, however
// many synthesizers ask for it at the same time.
type kernelEntry struct {
	once  sync.Once
	table []complex128
}

// kernelFor returns the kernel table of window w under an n-point FFT,
// from the cache when the shape is in it or there is room to add it.
func kernelFor(w []float64, n int) []complex128 {
	key := [2]int{len(w), n}
	kernelCache.Lock()
	e := kernelCache.tables[key]
	if e == nil && len(kernelCache.tables) < kernelCacheCap {
		if kernelCache.tables == nil {
			kernelCache.tables = make(map[[2]int]*kernelEntry)
		}
		e = &kernelEntry{}
		kernelCache.tables[key] = e
	}
	kernelCache.Unlock()
	if e == nil {
		return windowKernel(w, n)
	}
	e.once.Do(func() { e.table = windowKernel(w, n) })
	return e.table
}

// windowKernel computes the window's complex DTFT kernel
//
//	K(delta) = sum_n w[n] * exp(-j*2*pi*delta*n/N)
//
// on a grid of kernelOversample fractional-bin offsets per bin over
// [-kernelHalfWidth, +kernelHalfWidth].
func windowKernel(w []float64, n int) []complex128 {
	steps := int(2*kernelHalfWidth*kernelOversample) + 1
	step := 1.0 / kernelOversample
	kernel := make([]complex128, steps)
	for i := range kernel {
		delta := -kernelHalfWidth + float64(i)*step
		var acc complex128
		for t := range w {
			angle := -2 * math.Pi * delta * float64(t) / float64(n)
			acc += complex(w[t], 0) * cmplx.Exp(complex(0, angle))
		}
		kernel[i] = acc
	}
	return kernel
}

// Config returns the synthesizer's radio configuration.
func (s *Synthesizer) Config() Config { return s.cfg }

// oscResync is how many phasor-rotation steps the time-domain tone
// generator takes between exact trig evaluations. The rotation
// recurrence accumulates ~1 ulp of error per step, so resynchronizing
// every 64 samples bounds the relative tone error around 1e-14 — far
// below the receiver noise floor — while cutting the per-sample cost
// from a math.Cos call (the old hot spot: >half the slow path's CPU) to
// one complex multiply.
const oscResync = 64

// SynthesizeSweep produces the time-domain baseband signal of one sweep:
// a superposition of beat tones (one per path) plus white Gaussian
// receiver noise.
func (s *Synthesizer) SynthesizeSweep(paths []Path, rng *rand.Rand) []float64 {
	return s.SynthesizeSweepInto(nil, paths, rng)
}

// SynthesizeSweepInto is SynthesizeSweep writing into dst when it has
// the right length (allocating otherwise). Each tone is generated by a
// complex phasor rotated once per sample and resynchronized from exact
// trig every oscResync samples.
func (s *Synthesizer) SynthesizeSweepInto(dst []float64, paths []Path, rng *rand.Rand) []float64 {
	ns := s.cfg.SamplesPerSweep()
	if len(dst) != ns {
		dst = make([]float64, ns)
	} else {
		for t := range dst {
			dst[t] = 0
		}
	}
	dt := 1 / s.cfg.SampleRate
	for _, p := range paths {
		a := p.Amplitude()
		omega := 2 * math.Pi * s.cfg.BeatFreq(p.RoundTrip) * dt
		sn, cs := math.Sincos(omega)
		rot := complex(cs, sn)
		var c complex128
		for t := 0; t < ns; t++ {
			if t%oscResync == 0 {
				sn, cs = math.Sincos(omega*float64(t) + p.Phase)
				c = complex(a*cs, a*sn)
			}
			dst[t] += real(c)
			c *= rot
		}
	}
	sigma := math.Sqrt(s.cfg.NoiseFloorWatts)
	for t := range dst {
		dst[t] += rng.NormFloat64() * sigma
	}
	return dst
}

// ComplexFrameFromSweeps runs the paper's per-frame processing on
// time-domain sweeps: the coherent average of the windowed sweep
// spectra, truncated to the range bins of interest (see
// ComplexFrameFromSweepsInto for how it is computed).
func (s *Synthesizer) ComplexFrameFromSweeps(sweeps [][]float64) dsp.ComplexFrame {
	return s.ComplexFrameFromSweepsInto(nil, sweeps, s.NewSweepScratch())
}

// ComplexFrameFromSweepsInto is ComplexFrameFromSweeps against
// caller-owned buffers: the averaged frame lands in dst (reallocated
// only when the length is wrong) and all intermediate work runs in ws,
// so a streaming caller allocates nothing.
//
// The FFT is linear, so the average of the windowed sweep spectra is
// the spectrum of the windowed average sweep: the sweeps are summed
// sample by sample in sweep order, and the sum is windowed and
// transformed once, whatever the sweep count. Each summing pass reads
// two sweeps, and each sample's additions still run in sweep order from
// +0, so the sum is the one sweep-at-a-time addition would give, bit
// for bit. Every sweep must have the radio's SamplesPerSweep samples; a
// sweep of any other length is a programmer error and panics.
func (s *Synthesizer) ComplexFrameFromSweepsInto(dst dsp.ComplexFrame, sweeps [][]float64, ws *SweepScratch) dsp.ComplexFrame {
	for i, sw := range sweeps {
		s.checkSweep(i, len(sw))
	}
	ws.sum = sized(ws.sum, len(s.window))
	sum := ws.sum
	clear(sum)
	rest := sweeps
	for ; len(rest) >= 2; rest = rest[2:] {
		x, y := rest[0][:len(sum)], rest[1][:len(sum)]
		for j := range sum {
			sum[j] = (sum[j] + x[j]) + y[j]
		}
	}
	if len(rest) == 1 {
		x := rest[0][:len(sum)]
		for j := range sum {
			sum[j] += x[j]
		}
	}
	return s.frameFromSum(dst, len(sweeps), ws)
}

// ComplexFrameFromSweepsInt16Into is ComplexFrameFromSweepsInto over
// quantized int16 sweeps dequantized by scale. The codes are summed in
// int32, which is exact: a frame holds at most MaxSweepsPerFrame
// sweeps, so no sum overflows, and a frame of more sweeps panics like a
// sweep of the wrong length. Exact sums may be grouped freely, so each
// pass adds two sweeps' codes, and the last pass dequantizes the exact
// sum once as it writes it; the only deviation from the unquantized
// path is the quantization itself, bounded by QuantErrorBound(scale).
func (s *Synthesizer) ComplexFrameFromSweepsInt16Into(dst dsp.ComplexFrame, sweeps [][]int16, scale float64, ws *SweepScratch) dsp.ComplexFrame {
	if len(sweeps) > MaxSweepsPerFrame {
		panic(fmt.Sprintf("fmcw: int16 frame of %d sweeps exceeds the cap of %d", len(sweeps), MaxSweepsPerFrame))
	}
	for i, sw := range sweeps {
		s.checkSweep(i, len(sw))
	}
	ns := len(s.window)
	ws.sum16 = sized(ws.sum16, ns)
	acc := ws.sum16[:ns]
	clear(acc)
	rest := sweeps
	for ; len(rest) > 2; rest = rest[2:] {
		x, y := rest[0][:ns], rest[1][:ns]
		for j := range acc {
			acc[j] += int32(x[j]) + int32(y[j])
		}
	}
	ws.sum = sized(ws.sum, ns)
	sum := ws.sum[:ns]
	switch len(rest) {
	case 2:
		x, y := rest[0][:ns], rest[1][:ns]
		for j := range sum {
			sum[j] = float64(acc[j]+int32(x[j])+int32(y[j])) * scale
		}
	case 1:
		x := rest[0][:ns]
		for j := range sum {
			sum[j] = float64(acc[j]+int32(x[j])) * scale
		}
	default:
		for j := range sum {
			sum[j] = float64(acc[j]) * scale
		}
	}
	return s.frameFromSum(dst, len(sweeps), ws)
}

// checkSweep panics unless sweep i has the radio's sample count, which
// is the window's length.
func (s *Synthesizer) checkSweep(i, n int) {
	if n != len(s.window) {
		panic(fmt.Sprintf("fmcw: sweep %d has %d samples, the radio takes %d", i, n, len(s.window)))
	}
}

// sized returns buf when it has n elements and a fresh n-element slice
// otherwise.
func sized[T any](buf []T, n int) []T {
	if len(buf) != n {
		return make([]T, n)
	}
	return buf
}

// frameFromSum is the one frame body behind both entry points: it
// windows and transforms ws.sum, the sum of a frame's n sweeps, and
// scales the range bins by 1/n into dst.
func (s *Synthesizer) frameFromSum(dst dsp.ComplexFrame, n int, ws *SweepScratch) dsp.ComplexFrame {
	ws.spec = s.plan.RealTransform(ws.spec, ws.sum, s.window)
	nb := s.cfg.RangeBins()
	if len(dst) != nb {
		dst = make(dsp.ComplexFrame, nb)
	}
	inv := complex(1/float64(n), 0)
	for i := range dst {
		dst[i] = ws.spec[i] * inv
	}
	return dst
}

// FrameFromSweeps is ComplexFrameFromSweeps followed by magnitude.
func (s *Synthesizer) FrameFromSweeps(sweeps [][]float64) dsp.Frame {
	return s.ComplexFrameFromSweeps(sweeps).Mag()
}

// SynthesizeComplexFrameSlow generates one averaged complex frame
// through the full time-domain path (SweepsPerFrame sweeps of fresh
// noise).
func (s *Synthesizer) SynthesizeComplexFrameSlow(paths []Path, rng *rand.Rand) dsp.ComplexFrame {
	return s.SynthesizeComplexFrameSlowInto(nil, paths, rng, s.NewSweepScratch())
}

// SynthesizeComplexFrameSlowInto is SynthesizeComplexFrameSlow against
// caller-owned buffers (see ComplexFrameFromSweepsInto). The RNG draw
// order — sweep by sweep, each sweep's noise in sample order — is
// identical to the allocating entry point's, so the two are
// interchangeable bit for bit under a fixed seed.
func (s *Synthesizer) SynthesizeComplexFrameSlowInto(dst dsp.ComplexFrame, paths []Path, rng *rand.Rand, ws *SweepScratch) dsp.ComplexFrame {
	if len(ws.sweeps) != s.cfg.SweepsPerFrame {
		ws.sweeps = make([][]float64, s.cfg.SweepsPerFrame)
	}
	for i := range ws.sweeps {
		ws.sweeps[i] = s.SynthesizeSweepInto(ws.sweeps[i], paths, rng)
	}
	return s.ComplexFrameFromSweepsInto(dst, ws.sweeps, ws)
}

// SynthesizeFrameSlow is SynthesizeComplexFrameSlow followed by
// magnitude.
func (s *Synthesizer) SynthesizeFrameSlow(paths []Path, rng *rand.Rand) dsp.Frame {
	return s.SynthesizeComplexFrameSlow(paths, rng).Mag()
}

// kernelAt evaluates the window kernel at fractional-bin offset delta by
// linear interpolation of the precomputed table. Offsets beyond the
// table's support return 0.
func (s *Synthesizer) kernelAt(delta float64) complex128 {
	if delta < -s.kernelHalf || delta > s.kernelHalf {
		return 0
	}
	pos := (delta + s.kernelHalf) / s.kernelStep
	i := int(pos)
	if i >= len(s.kernel)-1 {
		return s.kernel[len(s.kernel)-1]
	}
	frac := complex(pos-float64(i), 0)
	return s.kernel[i]*(1-frac) + s.kernel[i+1]*frac
}

// PathSpectrum computes the deterministic (noise-free) signal part of an
// averaged complex frame directly in the frequency domain. A real tone
// A*cos(2*pi*f*t + phi) contributes (A/2)*exp(j*phi)*K(k - f/binHz) to
// bin k (the negative-frequency image falls outside the range bins for
// all targets beyond ~1.5 m and is neglected).
//
// dst is reused as the output when it has the right length (the
// pipeline's per-antenna workers pass their scratch frame to keep the
// hot path allocation-free); otherwise a fresh frame is allocated.
func (s *Synthesizer) PathSpectrum(paths []Path, dst dsp.ComplexFrame) dsp.ComplexFrame {
	nb := s.cfg.RangeBins()
	spec := dst
	if len(spec) != nb {
		spec = make(dsp.ComplexFrame, nb)
	} else {
		for k := range spec {
			spec[k] = 0
		}
	}
	for _, p := range paths {
		a := p.Amplitude() / 2
		center := s.cfg.BeatFreq(p.RoundTrip) / s.cfg.BinHz()
		lo := int(math.Ceil(center - s.kernelHalf))
		hi := int(math.Floor(center + s.kernelHalf))
		if lo < 0 {
			lo = 0
		}
		if hi > nb-1 {
			hi = nb - 1
		}
		rot := cmplx.Exp(complex(0, p.Phase))
		for k := lo; k <= hi; k++ {
			spec[k] += complex(a, 0) * rot * s.kernelAt(float64(k)-center)
		}
	}
	return spec
}

// NoiseFrame draws one frame's worth of averaged receiver noise into dst
// (reallocating only if the length is wrong) and returns it. Coherently
// averaging SweepsPerFrame sweeps leaves the signal term unchanged and
// divides the noise variance by the number of sweeps.
//
// The draw order — per bin, real then imaginary — is the RNG contract
// the streaming pipeline relies on: drawing all antennas' noise frames
// up front in antenna order consumes the generator exactly as the serial
// SynthesizeComplexFrame loop does, which is what keeps the concurrent
// pipeline bit-identical to the serial one.
func (s *Synthesizer) NoiseFrame(rng *rand.Rand, dst dsp.ComplexFrame) dsp.ComplexFrame {
	nb := s.cfg.RangeBins()
	if len(dst) != nb {
		dst = make(dsp.ComplexFrame, nb)
	}
	avgNoise := s.noisePerComp / math.Sqrt(float64(s.cfg.SweepsPerFrame))
	for k := range dst {
		dst[k] = complex(rng.NormFloat64()*avgNoise, rng.NormFloat64()*avgNoise)
	}
	return dst
}

// AddNoise adds a pre-drawn noise frame to a path spectrum in place —
// the same per-bin additions, in the same order, as the fused
// SynthesizeComplexFrame, so splitting synthesis across pipeline stages
// does not perturb a single bit of the output.
func AddNoise(spec, noise dsp.ComplexFrame) {
	for k := range spec {
		spec[k] += noise[k]
	}
}

// SynthesizeComplexFrame generates one averaged complex frame: the
// deterministic path spectrum plus per-bin complex Gaussian receiver
// noise. It is PathSpectrum + NoiseFrame + AddNoise fused (equivalence
// is property-tested in fmcw_test.go).
func (s *Synthesizer) SynthesizeComplexFrame(paths []Path, rng *rand.Rand) dsp.ComplexFrame {
	spec := s.PathSpectrum(paths, nil)
	avgNoise := s.noisePerComp / math.Sqrt(float64(s.cfg.SweepsPerFrame))
	for k := range spec {
		spec[k] += complex(rng.NormFloat64()*avgNoise, rng.NormFloat64()*avgNoise)
	}
	return spec
}

// SynthesizeFrame is SynthesizeComplexFrame followed by magnitude.
func (s *Synthesizer) SynthesizeFrame(paths []Path, rng *rand.Rand) dsp.Frame {
	return s.SynthesizeComplexFrame(paths, rng).Mag()
}

// NoiseBinSigma returns the per-component standard deviation of FFT-bin
// noise after frame averaging — the quantity detection thresholds should
// be calibrated against.
func (s *Synthesizer) NoiseBinSigma() float64 {
	return s.noisePerComp / math.Sqrt(float64(s.cfg.SweepsPerFrame))
}

// PeakMagnitude returns the frame magnitude a path of the given received
// power would produce at its exact bin (amplitude/2 times the window DC
// gain) — useful for SNR accounting in tests and threshold design.
func (s *Synthesizer) PeakMagnitude(powerWatts float64) float64 {
	return math.Sqrt(2*powerWatts) / 2 * s.winSum
}
