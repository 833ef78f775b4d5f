// Package dsp provides the signal-processing primitives the WiTrack
// pipeline needs: a planned FFT (the Go standard library has none),
// window functions, spectrogram construction, local-maximum peak
// detection, and order statistics. Everything is implemented from
// scratch on the standard library only.
package dsp

import (
	"math"
	"math/bits"
)

// DFT computes the discrete Fourier transform naively in O(n^2). It
// exists as a correctness oracle for the planned FFT in tests and works
// for any length. The twiddles are read from a table indexed (k*t) mod
// n, which keeps every evaluated angle inside [0, 2*pi) — more accurate
// than evaluating the exponential at angles that grow with k*t, so the
// oracle stays meaningful at the tight tolerances the planned FFT
// achieves.
func DFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	if n == 0 {
		return out
	}
	w := make([]complex128, n)
	for j := range w {
		sn, cs := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
		w[j] = complex(cs, sn)
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			sum += x[t] * w[(k*t)%n]
		}
		out[k] = sum
	}
	return out
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}
