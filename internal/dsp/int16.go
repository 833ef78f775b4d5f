package dsp

import "fmt"

// The int16 sweep path keeps quantized ADC samples on their compact
// wire representation until the last possible moment: WindowPackInt16
// fuses dequantization (code * scale), windowing, and the real-input
// even/odd packing into one pass over the int16 input, writing straight
// into the complex FFT working buffer. There is no float64 staging
// buffer — the only wide values that exist are the ones the transform
// consumes anyway.
//
// The arithmetic contract is exact: for every sample the fused kernel
// computes v := float64(code) * scale, then v *= window[j] — the same
// two operations, in the same order, a staged dequantize-then-packReal
// pipeline would perform. Fused output is therefore bit-identical to
// the staged path (TestWindowPackInt16MatchesStaged pins this), and the
// only error the int16 path introduces over the float64 sweep path is
// the quantization itself, which fmcw.Quantizer bounds analytically.

// WindowPackInt16 writes the dequantized, windowed real-input packing
// of the int16 signal x into dst: z[k] = v[2k] + i*v[2k+1] with
// v[j] = (float64(x[j]) * scale) * window[j], zero-padded (or truncated)
// to the plan size, into dst[:n/2] with dst[n/2] untouched (n == 1
// writes the single sample). The main loop is unrolled four complex
// outputs (eight samples) wide. If window is non-nil it must cover x.
func (p *Plan) WindowPackInt16(dst []complex128, x []int16, scale float64, window []float64) {
	if len(x) > p.n {
		x = x[:p.n]
	}
	if window != nil && len(window) < len(x) {
		panic(fmt.Sprintf("dsp: window of %d samples cannot cover %d-sample signal", len(window), len(x)))
	}
	if p.n == 1 {
		v := 0.0
		if len(x) > 0 {
			v = float64(x[0]) * scale
			if window != nil {
				v *= window[0]
			}
		}
		dst[0] = complex(v, 0)
		return
	}
	h := p.n / 2
	lim := (len(x) + 1) / 2
	full := len(x) / 2
	k := 0
	if window != nil {
		for ; k+4 <= full; k += 4 {
			j := 2 * k
			dst[k] = complex(float64(x[j])*scale*window[j], float64(x[j+1])*scale*window[j+1])
			dst[k+1] = complex(float64(x[j+2])*scale*window[j+2], float64(x[j+3])*scale*window[j+3])
			dst[k+2] = complex(float64(x[j+4])*scale*window[j+4], float64(x[j+5])*scale*window[j+5])
			dst[k+3] = complex(float64(x[j+6])*scale*window[j+6], float64(x[j+7])*scale*window[j+7])
		}
		for ; k < full; k++ {
			j := 2 * k
			dst[k] = complex(float64(x[j])*scale*window[j], float64(x[j+1])*scale*window[j+1])
		}
	} else {
		for ; k+4 <= full; k += 4 {
			j := 2 * k
			dst[k] = complex(float64(x[j])*scale, float64(x[j+1])*scale)
			dst[k+1] = complex(float64(x[j+2])*scale, float64(x[j+3])*scale)
			dst[k+2] = complex(float64(x[j+4])*scale, float64(x[j+5])*scale)
			dst[k+3] = complex(float64(x[j+6])*scale, float64(x[j+7])*scale)
		}
		for ; k < full; k++ {
			j := 2 * k
			dst[k] = complex(float64(x[j])*scale, float64(x[j+1])*scale)
		}
	}
	if full < lim {
		re := float64(x[2*full]) * scale
		if window != nil {
			re *= window[2*full]
		}
		dst[full] = complex(re, 0)
	}
	for k := lim; k < h; k++ {
		dst[k] = 0
	}
}
