package dsp

import "math"

// Hann returns an n-point Hann window. The Hann window trades ~1.5 bins
// of main-lobe width for ~31 dB lower sidelobes, which matters in FMCW
// processing because a strong static reflector's sidelobes would
// otherwise mask the weak human reflection at nearby bins.
func Hann(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}
