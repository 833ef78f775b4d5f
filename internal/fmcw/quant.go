package fmcw

import (
	"fmt"
	"math"
)

// adcNoiseSigmas is the noise headroom folded into an ADC full scale:
// the quantizer range extends this many receiver-noise standard
// deviations past the worst-case coherent signal amplitude, so a
// Gaussian noise excursion effectively never clips (P ~ 1e-15 per
// sample at 8 sigma).
const adcNoiseSigmas = 8.0

// adcSignalHeadroom scales the configured signal amplitude sum when
// deriving a full scale: target reflections ride on top of the static
// environment paths the scale is derived from, and a moving subject's
// return strengthens as it approaches the array, so the static sum
// alone would sit exactly at the rail. Doubling it costs one bit of
// dynamic range and makes clipping a counted anomaly instead of a
// steady state.
const adcSignalHeadroom = 2.0

// ADCFullScale derives a quantizer full scale from configured
// amplitudes: the worst-case coherent sum of the given paths'
// amplitudes (every tone peaking in the same sample), doubled for
// signal headroom, plus an 8-sigma receiver-noise margin. Feeding it
// the static environment paths of the loudest antenna gives the scale
// the recording side stamps into int16 trace headers.
func ADCFullScale(paths []Path, noiseFloorWatts float64) float64 {
	sum := 0.0
	for _, p := range paths {
		sum += p.Amplitude()
	}
	return adcSignalHeadroom*sum + adcNoiseSigmas*math.Sqrt(noiseFloorWatts)
}

// Quantizer is the ADC model of the int16 sweep path: a symmetric
// mid-tread rounding quantizer with ADCBits of resolution over
// ±FullScale. Codes are signed ADCBits-bit integers carried in int16;
// dequantization is exactly float64(code) * Scale, and the sweep path
// applies it once to each frame's exact int32 code sum. Samples beyond
// the rails are
// clamped to the extreme codes and counted — clipping is lossy beyond
// the stated quantization bound, so the pipeline's oracles assert the
// count stays zero.
//
// A Quantizer is owned by one goroutine (the pipeline source that
// synthesizes the samples); the immutable scale may be read anywhere.
type Quantizer struct {
	bits    int
	scale   float64
	maxCode float64
	clipped int64
}

// NewQuantizer builds a quantizer with the given resolution (12, 14,
// or 16 bits — Config.ADCBits' domain) over ±fullScale. It panics on
// an invalid resolution or a non-positive full scale (programmer
// error: both come from validated configuration).
func NewQuantizer(bits int, fullScale float64) *Quantizer {
	switch bits {
	case 12, 14, 16:
	default:
		panic(fmt.Sprintf("fmcw: quantizer resolution %d bits is not 12, 14, or 16", bits))
	}
	if !(fullScale > 0) || math.IsInf(fullScale, 0) {
		panic(fmt.Sprintf("fmcw: quantizer full scale %g is not positive and finite", fullScale))
	}
	half := float64(int32(1) << uint(bits-1))
	return &Quantizer{
		bits:  bits,
		scale: fullScale / half,
		// Clamp symmetrically to ±(2^(bits-1)-1): the spare negative code
		// of two's complement stays unused so |dequant| <= FullScale-Scale
		// on both rails.
		maxCode: half - 1,
	}
}

// Bits returns the quantizer resolution.
func (q *Quantizer) Bits() int { return q.bits }

// Scale returns the dequantization step: sample = float64(code) * Scale.
func (q *Quantizer) Scale() float64 { return q.scale }

// FullScale returns the amplitude the code range spans.
func (q *Quantizer) FullScale() float64 { return q.scale * (q.maxCode + 1) }

// Clipped returns how many samples have been clamped to a rail so far.
func (q *Quantizer) Clipped() int64 { return q.clipped }

// Quantize rounds each sample of src to its nearest code, clamping to
// the rails (counted), and writes the codes into dst, reallocating only
// when the length differs.
func (q *Quantizer) Quantize(dst []int16, src []float64) []int16 {
	if len(dst) != len(src) {
		dst = make([]int16, len(src))
	}
	for i, v := range src {
		c := math.Round(v / q.scale)
		if c > q.maxCode {
			c = q.maxCode
			q.clipped++
		} else if c < -q.maxCode {
			c = -q.maxCode
			q.clipped++
		}
		dst[i] = int16(c)
	}
	return dst
}

// QuantErrorBound returns the analytic per-bin absolute error bound of
// the quantized sweep path at dequantization step scale: each sample is
// off by at most scale/2 (absent clipping), and a windowed FFT bin is a
// weighted sum of samples with |weights| = window, so the bin error is
// at most (scale/2) * sum(window). Coherently averaging sweeps is a
// convex combination of per-sweep spectra and cannot exceed the
// per-sweep bound, so the same figure bounds whole frames. The measured
// oracle (TestInt16SweepPathWithinBound) checks real errors against it.
func (s *Synthesizer) QuantErrorBound(scale float64) float64 {
	return scale / 2 * s.winSum
}
