// Package fmcw models the paper's frequency-modulated carrier wave radio
// (§4.1, §7): a narrowband signal whose carrier sweeps a large bandwidth,
// so that reflector time-of-flight becomes a baseband frequency shift
// after mixing (TOF = Δf/slope). Because the physical front end is a
// hardware gate, this package synthesizes the *baseband mixed signal*
// (or, equivalently, its windowed FFT frames) from a list of propagation
// paths — exactly the input the paper's DSP pipeline consumes.
package fmcw

import (
	"errors"
	"fmt"
	"math"

	"witrack/internal/dsp"
)

// C is the speed of light in m/s.
const C = 299792458.0

// Config describes one FMCW radio, mirroring the prototype in §4.1/§7.
type Config struct {
	// StartFreq is the low end of the carrier sweep in Hz.
	StartFreq float64
	// Bandwidth is the total swept bandwidth B in Hz. The paper sweeps
	// 1.69 GHz (5.56-7.25 GHz), the largest contiguous low-power civilian
	// band below 10 GHz, giving a C/2B = 8.8 cm one-way resolution.
	Bandwidth float64
	// SweepTime is the duration of one sweep in seconds (2.5 ms).
	SweepTime float64
	// SampleRate is the baseband ADC rate in Hz (1 MHz on the USRP
	// LFRX-LF daughterboard).
	SampleRate float64
	// TxPowerWatts is the transmit power (0.75 mW).
	TxPowerWatts float64
	// SweepsPerFrame is how many consecutive sweeps are averaged into one
	// frame (5 sweeps = 12.5 ms in the paper's §4.3).
	SweepsPerFrame int
	// NoiseFloorWatts is the per-sample thermal + front-end noise power
	// referred to the receiver input.
	NoiseFloorWatts float64
	// MaxRange is the largest round-trip distance of interest in meters;
	// it bounds how many FFT bins the pipeline keeps per frame (the
	// paper's spectrograms span 0-30 m).
	MaxRange float64
	// ADCBits, when nonzero, models the receiver's digitizer: slow-path
	// time-domain sweeps are quantized to signed ADCBits-bit codes (12,
	// 14, or 16 — the common FMCW front-end widths) before any spectral
	// processing, and the pipeline sums the compact int16 codes exactly
	// and dequantizes each frame's sum once instead of every sample.
	// Zero keeps the exact float64 synthesis path. Only meaningful with
	// slow (time-domain) synthesis; the fast frequency-domain path never
	// materializes samples to quantize.
	ADCBits int
}

// MaxSamplesPerSweep caps the sweep length Validate accepts: 16,384
// samples, over six times the paper's 2,500. Building a synthesizer
// costs time and memory in proportion to the sweep, and a replayed
// trace names its own radio, so the cap keeps a forged trace from
// making a device allocate and compute without bound.
const MaxSamplesPerSweep = 1 << 14

// MaxSweepsPerFrame caps the sweeps Validate accepts per frame: 1,024,
// far above the 5 of the paper's radio and the 8 of the compact one.
// The int16 sweep path sums a frame's codes in int32, which stays exact
// up to 65,536 full-scale sweeps, and a replayed trace names its own
// frame shape, so the cap keeps both the sum and a forged trace's
// frame size bounded.
const MaxSweepsPerFrame = 1 << 10

// Default returns the paper's prototype configuration.
func Default() Config {
	return Config{
		StartFreq:      5.56e9,
		Bandwidth:      1.69e9,
		SweepTime:      2.5e-3,
		SampleRate:     1e6,
		TxPowerWatts:   0.75e-3,
		SweepsPerFrame: 5,
		// Thermal noise over the 1 MHz baseband (kTB ~= 4e-15 W) plus a
		// ~4 dB receiver noise figure.
		NoiseFloorWatts: 1e-14,
		MaxRange:        30,
	}
}

// Validate checks the configuration is physically meaningful.
func (c Config) Validate() error {
	switch {
	case c.StartFreq <= 0 || c.Bandwidth <= 0:
		return errors.New("fmcw: carrier sweep must have positive start and bandwidth")
	case c.SweepTime <= 0 || c.SampleRate <= 0:
		return errors.New("fmcw: sweep time and sample rate must be positive")
	case c.SweepsPerFrame < 1:
		return errors.New("fmcw: need at least one sweep per frame")
	case c.SweepsPerFrame > MaxSweepsPerFrame:
		return fmt.Errorf("fmcw: %d sweeps per frame exceeds the cap of %d", c.SweepsPerFrame, MaxSweepsPerFrame)
	case c.TxPowerWatts <= 0 || c.NoiseFloorWatts <= 0:
		return errors.New("fmcw: powers must be positive")
	case c.MaxRange <= 0:
		return errors.New("fmcw: max range must be positive")
	}
	switch c.ADCBits {
	case 0, 12, 14, 16:
	default:
		return fmt.Errorf("fmcw: ADCBits must be 0, 12, 14, or 16 (got %d)", c.ADCBits)
	}
	// The product is checked as a float, before SamplesPerSweep rounds
	// it to an int that a huge rate or sweep time would overflow.
	if ns := math.Round(c.SweepTime * c.SampleRate); !(ns <= MaxSamplesPerSweep) {
		return fmt.Errorf("fmcw: %g samples per sweep exceeds the cap of %d", ns, MaxSamplesPerSweep)
	}
	if c.SamplesPerSweep() < 16 {
		return fmt.Errorf("fmcw: only %d samples per sweep; raise SampleRate or SweepTime", c.SamplesPerSweep())
	}
	if bw := c.MaxBeatFreq(); bw > c.SampleRate/2 {
		return fmt.Errorf("fmcw: max beat frequency %.0f Hz exceeds Nyquist %.0f Hz", bw, c.SampleRate/2)
	}
	return nil
}

// Slope returns the sweep slope B/T in Hz/s (Eq. 1).
func (c Config) Slope() float64 { return c.Bandwidth / c.SweepTime }

// CenterFreq returns the mid-sweep carrier frequency.
func (c Config) CenterFreq() float64 { return c.StartFreq + c.Bandwidth/2 }

// Wavelength returns the wavelength at the center frequency.
func (c Config) Wavelength() float64 { return C / c.CenterFreq() }

// Resolution returns the paper's Eq. 3: the one-way distance resolution
// C/2B. For the default configuration this is 8.8 cm.
func (c Config) Resolution() float64 { return C / (2 * c.Bandwidth) }

// SamplesPerSweep returns the number of baseband samples in one sweep.
func (c Config) SamplesPerSweep() int {
	return int(math.Round(c.SweepTime * c.SampleRate))
}

// FFTSize returns the zero-padded FFT length used per sweep.
func (c Config) FFTSize() int { return dsp.NextPow2(c.SamplesPerSweep()) }

// BinHz returns the frequency spacing of one FFT bin (SampleRate/FFTSize).
func (c Config) BinHz() float64 { return c.SampleRate / float64(c.FFTSize()) }

// BinDistance returns the round-trip distance covered by one FFT bin in
// meters: distance = C * Δf / slope (Eq. 4). Note this is the *bin
// spacing* of the zero-padded FFT; the physical resolution remains C/2B
// one-way regardless of padding.
func (c Config) BinDistance() float64 { return C * c.BinHz() / c.Slope() }

// BeatFreq returns the baseband beat frequency for a reflector at the
// given round-trip distance: Δf = slope * TOF = slope * d / C (Eq. 1/4).
func (c Config) BeatFreq(roundTrip float64) float64 {
	return c.Slope() * roundTrip / C
}

// RoundTripForBeat inverts BeatFreq.
func (c Config) RoundTripForBeat(beatHz float64) float64 {
	return beatHz * C / c.Slope()
}

// MaxBeatFreq returns the beat frequency at MaxRange.
func (c Config) MaxBeatFreq() float64 { return c.BeatFreq(c.MaxRange) }

// RangeBins returns how many FFT bins cover distances up to MaxRange.
func (c Config) RangeBins() int {
	n := int(math.Ceil(c.MaxRange/c.BinDistance())) + 1
	if max := c.FFTSize()/2 + 1; n > max {
		n = max
	}
	return n
}

// FrameInterval returns the wall-clock time covered by one averaged
// frame (SweepsPerFrame * SweepTime; 12.5 ms by default).
func (c Config) FrameInterval() float64 {
	return float64(c.SweepsPerFrame) * c.SweepTime
}
