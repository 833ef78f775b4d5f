package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewPlanPanicsOnNonPow2(t *testing.T) {
	for _, n := range []int{0, -4, 3, 12, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for size %d", n)
				}
			}()
			NewPlan(n)
		}()
	}
}

func TestPlanTransformMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 4, 32, 512} {
		p := NewPlan(n)
		if p.Size() != n {
			t.Fatalf("Size() = %d, want %d", p.Size(), n)
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := DFT(x)
		got := append([]complex128(nil), x...)
		p.Transform(got)
		for i := range want {
			if !complexClose(got[i], want[i], 1e-12*float64(n)+1e-13) {
				t.Fatalf("n=%d bin %d: plan=%v DFT=%v", n, i, got[i], want[i])
			}
		}
	}
}

func TestPlanInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewPlan(1024)
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := append([]complex128(nil), x...)
	p.Transform(y)
	p.Inverse(y)
	for i := range x {
		if !complexClose(x[i], y[i], 1e-12) {
			t.Fatalf("bin %d: got %v want %v", i, y[i], x[i])
		}
	}
}

func TestPlanSizeMismatchPanics(t *testing.T) {
	p := NewPlan(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	p.Transform(make([]complex128, 4))
}

// TestRealTransformMatchesComplexFFT is the real-input transform's core
// property: for any real input, RFFT(x) must equal FFT(complex(x)) on the
// non-negative-frequency bins, across sizes, zero-padding amounts, and
// windows.
func TestRealTransformMatchesComplexFFT(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(10)) // 2..1024
		ns := 1 + rng.Intn(n)        // signal shorter than the padded size
		if rng.Intn(2) == 0 {
			ns = n
		}
		sig := make([]float64, ns)
		for i := range sig {
			sig[i] = rng.NormFloat64()
		}
		var window []float64
		if rng.Intn(2) == 0 {
			window = Hann(ns)
		}
		// Reference: windowed complex FFT.
		ref := make([]complex128, n)
		for i, v := range sig {
			if window != nil {
				v *= window[i]
			}
			ref[i] = complex(v, 0)
		}
		PlanFor(n).Transform(ref)
		got := PlanFor(n).RealTransform(nil, sig, window)
		if len(got) != n/2+1 {
			return false
		}
		for k := 0; k <= n/2; k++ {
			if !complexClose(got[k], ref[k], 1e-12*float64(n)+1e-13) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRealTransformConjugateSymmetryIsExactlyRedundant(t *testing.T) {
	// The bins RealTransform omits must be recoverable as conjugates: no
	// information is lost by keeping only n/2+1 bins of a real signal.
	n := 256
	rng := rand.New(rand.NewSource(9))
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = rng.NormFloat64()
	}
	full := make([]complex128, n)
	for i, v := range sig {
		full[i] = complex(v, 0)
	}
	PlanFor(n).Transform(full)
	half := PlanFor(n).RealTransform(nil, sig, nil)
	for k := 1; k < n/2; k++ {
		if !complexClose(cmplx.Conj(half[k]), full[n-k], 1e-10) {
			t.Fatalf("bin %d: conj(X[k])=%v, X[n-k]=%v", k, cmplx.Conj(half[k]), full[n-k])
		}
	}
	// DC and Nyquist bins of a real signal are purely real.
	if imag(half[0]) != 0 || imag(half[n/2]) != 0 {
		t.Fatalf("DC/Nyquist bins not real: %v %v", half[0], half[n/2])
	}
}

func TestRealTransformReusesDst(t *testing.T) {
	n := 64
	p := NewPlan(n)
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = float64(i%7) - 3
	}
	dst := make([]complex128, n/2+1)
	out := p.RealTransform(dst, sig, nil)
	if &out[0] != &dst[0] {
		t.Fatal("right-length dst was not reused")
	}
	if short := p.RealTransform(make([]complex128, 3), sig, nil); len(short) != n/2+1 {
		t.Fatalf("wrong-length dst not replaced: len=%d", len(short))
	}
}

func TestRealTransformWindowTooShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short window")
		}
	}()
	NewPlan(8).RealTransform(nil, make([]float64, 8), make([]float64, 4))
}

// TestPlanForCacheConcurrent hammers the per-size plan cache from many
// goroutines (run under -race in CI): all callers of one size must
// observe the same immutable instance, and concurrent transforms on
// shared plans must not interfere.
func TestPlanForCacheConcurrent(t *testing.T) {
	sizes := []int{2, 8, 64, 256, 1024, 4096}
	const goroutines = 16
	got := make([][]*Plan, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			got[g] = make([]*Plan, len(sizes))
			for round := 0; round < 50; round++ {
				for si, n := range sizes {
					p := PlanFor(n)
					got[g][si] = p
					// Exercise the shared plan with private buffers.
					x := make([]complex128, n)
					x[rng.Intn(n)] = 1
					p.Transform(x)
				}
			}
		}(g)
	}
	wg.Wait()
	for si, n := range sizes {
		for g := 1; g < goroutines; g++ {
			if got[g][si] != got[0][si] {
				t.Fatalf("size %d: goroutine %d saw a different plan instance", n, g)
			}
		}
	}
}

func TestPlanTransformsAllocateNothing(t *testing.T) {
	n := 1024
	p := PlanFor(n)
	x := make([]complex128, n)
	sig := make([]float64, n)
	dst := make([]complex128, n/2+1)
	w := Hann(n)
	if a := testing.AllocsPerRun(20, func() { p.Transform(x) }); a != 0 {
		t.Fatalf("Transform allocates %v per run", a)
	}
	if a := testing.AllocsPerRun(20, func() { p.Inverse(x) }); a != 0 {
		t.Fatalf("Inverse allocates %v per run", a)
	}
	if a := testing.AllocsPerRun(20, func() { dst = p.RealTransform(dst, sig, w) }); a != 0 {
		t.Fatalf("RealTransform allocates %v per run", a)
	}
}

func BenchmarkPlanFFT4096(b *testing.B) {
	n := 4096
	p := PlanFor(n)
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	buf := make([]complex128, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.Transform(buf)
	}
}

func BenchmarkRealFFT4096(b *testing.B) {
	n := 4096
	p := PlanFor(n)
	rng := rand.New(rand.NewSource(1))
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = rng.NormFloat64()
	}
	w := Hann(n)
	dst := make([]complex128, n/2+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = p.RealTransform(dst, sig, w)
	}
}

// BenchmarkRecurrenceFFT4096 measures the seed implementation (bit
// reversal + w *= wBase recurrence butterflies, recomputed per call) as
// the baseline the planned engine is judged against.
func BenchmarkRecurrenceFFT4096(b *testing.B) {
	recurrenceFFT := func(x []complex128) {
		n := len(x)
		shift := 64 - uint(bits.TrailingZeros(uint(n)))
		for i := 0; i < n; i++ {
			j := int(bits.Reverse64(uint64(i)) >> shift)
			if j > i {
				x[i], x[j] = x[j], x[i]
			}
		}
		for size := 2; size <= n; size <<= 1 {
			half := size >> 1
			step := -2 * math.Pi / float64(size)
			wBase := cmplx.Exp(complex(0, step))
			for start := 0; start < n; start += size {
				w := complex(1, 0)
				for k := 0; k < half; k++ {
					even := x[start+k]
					odd := x[start+k+half] * w
					x[start+k] = even + odd
					x[start+k+half] = even - odd
					w *= wBase
				}
			}
		}
	}
	n := 4096
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	buf := make([]complex128, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		recurrenceFFT(buf)
	}
}
