package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func complexClose(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

// fftOracleTol is the FFT-vs-DFT comparison tolerance as a function of
// the transform size. The planned FFT reads exact twiddle tables, so its
// error stays within a few ULPs per stage; 1e-12*n is three orders of
// magnitude tighter than the 1e-9*n the old w *= wBase recurrence
// required, and still leaves ~1000x of measured headroom at n = 1<<14.
func fftOracleTol(n int) float64 {
	return 1e-12*float64(n) + 1e-13
}

func TestFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{1, 2, 4, 8, 16, 64, 256, 1024}
	if !testing.Short() {
		// The large-N case is where the recurrence's precision drift
		// accumulated; the O(n^2) oracle costs ~1 s here, so -short
		// skips it.
		sizes = append(sizes, 1<<14)
	}
	for _, n := range sizes {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := DFT(x)
		got := append([]complex128(nil), x...)
		PlanFor(n).Transform(got)
		for i := range want {
			if !complexClose(got[i], want[i], fftOracleTol(n)) {
				t.Fatalf("n=%d bin %d: FFT=%v DFT=%v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length 3")
		}
	}()
	PlanFor(3)
}

// Property: Parseval's theorem — total energy is preserved (up to the N
// normalization of the unnormalized transform).
func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(6)) // 8..256
		x := make([]complex128, n)
		timeEnergy := 0.0
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			timeEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		PlanFor(n).Transform(x)
		freqEnergy := 0.0
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(freqEnergy/float64(n)-timeEnergy) < 1e-7*timeEnergy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: FFT is linear.
func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		x := make([]complex128, n)
		y := make([]complex128, n)
		sum := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			sum[i] = x[i] + 2*y[i]
		}
		p := PlanFor(n)
		p.Transform(x)
		p.Transform(y)
		p.Transform(sum)
		for i := range sum {
			if !complexClose(sum[i], x[i]+2*y[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A pure complex exponential at bin k concentrates all energy there.
	n := 256
	k := 37
	x := make([]complex128, n)
	for i := range x {
		angle := 2 * math.Pi * float64(k) * float64(i) / float64(n)
		x[i] = cmplx.Exp(complex(0, angle))
	}
	PlanFor(n).Transform(x)
	for i := range x {
		mag := cmplx.Abs(x[i])
		if i == k {
			if math.Abs(mag-float64(n)) > 1e-8 {
				t.Fatalf("bin %d magnitude %v, want %d", i, mag, n)
			}
		} else if mag > 1e-8 {
			t.Fatalf("leakage at bin %d: %v", i, mag)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 2500: 4096}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// realFFTMag is the per-sweep processing step of the paper's §4.1 on
// one n-sample signal: window, real-input FFT, magnitudes of the n/2
// positive-frequency bins.
func realFFTMag(sig, window []float64) []float64 {
	n := len(sig)
	spec := PlanFor(n).RealTransform(nil, sig, window)
	mag := make([]float64, n/2)
	for i := range mag {
		mag[i] = cmplx.Abs(spec[i])
	}
	return mag
}

func TestRealFFTMagTone(t *testing.T) {
	// Real cosine at exactly bin 20 of a 512-point frame.
	n := 512
	k := 20
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = math.Cos(2 * math.Pi * float64(k) * float64(i) / float64(n))
	}
	mag := realFFTMag(sig, nil)
	best := 0
	for i := range mag {
		if mag[i] > mag[best] {
			best = i
		}
	}
	if best != k {
		t.Fatalf("peak at bin %d, want %d", best, k)
	}
	// A real cosine of amplitude 1 has magnitude n/2 at its bin.
	if math.Abs(mag[k]-float64(n)/2) > 1e-6 {
		t.Fatalf("peak magnitude %v, want %v", mag[k], float64(n)/2)
	}
}

func TestRealFFTMagWindowReducesLeakage(t *testing.T) {
	// An off-bin tone leaks badly with a rectangular window; Hann should
	// concentrate energy better at distant bins.
	n := 512
	freq := 20.5 // halfway between bins: worst-case leakage
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = math.Cos(2 * math.Pi * freq * float64(i) / float64(n))
	}
	rect := realFFTMag(sig, nil)
	hann := realFFTMag(sig, Hann(n))
	// Compare leakage 30 bins away from the tone, normalized by the peak.
	farBin := 50
	rectLeak := rect[farBin] / rect[20]
	hannLeak := hann[farBin] / hann[20]
	if hannLeak >= rectLeak {
		t.Fatalf("Hann leakage %v should be below rectangular %v", hannLeak, rectLeak)
	}
}

func TestHannWindowProperties(t *testing.T) {
	w := Hann(64)
	if len(w) != 64 {
		t.Fatalf("len = %d", len(w))
	}
	if w[0] > 1e-12 || w[63] > 1e-12 {
		t.Fatalf("Hann endpoints should be ~0: %v %v", w[0], w[63])
	}
	max := 0.0
	for _, v := range w {
		if v < 0 || v > 1 {
			t.Fatalf("Hann value %v out of [0,1]", v)
		}
		if v > max {
			max = v
		}
	}
	if max < 0.99 {
		t.Fatalf("Hann max %v should approach 1", max)
	}
	if Hann(1)[0] != 1 {
		t.Fatal("Hann(1) should be [1]")
	}
	// The coherent (DC) gain, the mean of the window, is ~0.5.
	if cg := Mean(w); math.Abs(cg-0.5) > 0.02 {
		t.Fatalf("Hann coherent gain %v, want ~0.5", cg)
	}
}
