package dsp

import (
	"fmt"
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

// radix2Oracle is the transform the fused passes replaced, kept as
// their oracle: a swap pass over the bit-reversal pairs (i, j), i < j,
// then one pass over memory per radix-2 stage with the plan's twiddle
// tables.
func radix2Oracle(p *Plan, x []complex128) {
	n := len(x)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for si, tw := range p.stages {
		half := 1 << uint(si)
		size := half << 1
		for start := 0; start < n; start += size {
			a := x[start : start+half : start+half]
			b := x[start+half : start+size : start+size]
			for k := range a {
				even := a[k]
				odd := b[k] * tw[k]
				a[k] = even + odd
				b[k] = even - odd
			}
		}
	}
}

// linearPackOracle is the real-input packing the bit-reversing gather
// replaced: z[k] = x[2k] + i*x[2k+1] (windowed, zero-padded) stored in
// natural order into dst[:n/2], for n >= 2.
func linearPackOracle(n int, dst []complex128, x, window []float64) {
	if len(x) > n {
		x = x[:n]
	}
	h := n / 2
	lim := (len(x) + 1) / 2
	for k := 0; k < lim; k++ {
		var re, im float64
		if j := 2 * k; j < len(x) {
			re = x[j]
			if window != nil {
				re *= window[j]
			}
		}
		if j := 2*k + 1; j < len(x) {
			im = x[j]
			if window != nil {
				im *= window[j]
			}
		}
		dst[k] = complex(re, im)
	}
	for k := lim; k < h; k++ {
		dst[k] = 0
	}
}

// realOracle is RealTransform as it ran before the gather and the fused
// passes: linear pack, swap pass and radix-2 stages on the half plan,
// then the shared unpack.
func realOracle(p *Plan, x, window []float64) []complex128 {
	if p.n == 1 {
		dst := make([]complex128, 1)
		p.packReal(dst, x, window)
		return dst
	}
	h := p.n / 2
	dst := make([]complex128, h+1)
	linearPackOracle(p.n, dst, x, window)
	radix2Oracle(p.half, dst[:h])
	p.unpackReal(dst)
	return dst
}

// sameBits reports whether a and b agree bit for bit, except that any
// NaN matches any NaN: x86 returns the first operand's NaN payload, and
// the compiler may swap the operands of a commutative operation, so
// only where a NaN appears is part of the contract, not its payload.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// sameSpectrum fails unless got matches the oracle's want bit for bit
// under sameBits.
func sameSpectrum(t *testing.T, label string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bins, oracle %d", label, len(got), len(want))
	}
	for i := range want {
		if !sameBits(real(got[i]), real(want[i])) || !sameBits(imag(got[i]), imag(want[i])) {
			t.Fatalf("%s: bin %d is %v, oracle %v", label, i, got[i], want[i])
		}
	}
}

// specialValue draws one of the values that expose a skipped or
// reordered operation — signed zeros, infinities, NaN, subnormals and
// values whose products overflow — or, one time in eight, a normal
// sample.
func specialValue(rng *rand.Rand) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return math.Copysign(0, -sign)
	case 2:
		return math.Inf(int(sign))
	case 3:
		return math.NaN()
	case 4:
		return sign * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	case 5:
		return sign * math.MaxFloat64 / (1 + rng.Float64())
	case 6:
		return sign * 0x1p-1022 * rng.Float64() // subnormal or zero
	default:
		return rng.NormFloat64()
	}
}

// oracleInputs are the sample patterns the bit-identity tests feed both
// sides: Gaussian samples; signed zeros salted with subnormals, whose
// outputs are all zeros whose signs a skipped (1, -0) twiddle would
// flip; Gaussian samples with a few special values; and special values
// throughout.
var oracleInputs = []struct {
	name string
	draw func(rng *rand.Rand, n int) float64
}{
	{"gaussian", func(rng *rand.Rand, _ int) float64 { return rng.NormFloat64() }},
	{"signed zeros", func(rng *rand.Rand, _ int) float64 {
		if rng.Intn(16) == 0 {
			return float64(1-2*rng.Intn(2)) * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(8))
		}
		return math.Copysign(0, float64(1-2*rng.Intn(2)))
	}},
	{"sparse specials", func(rng *rand.Rand, n int) float64 {
		if rng.Intn(n+8) < 3 {
			return specialValue(rng)
		}
		return rng.NormFloat64()
	}},
	{"specials", func(rng *rand.Rand, _ int) float64 { return specialValue(rng) }},
}

// fill returns n samples of one oracle input pattern.
func fill(rng *rand.Rand, n int, draw func(*rand.Rand, int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = draw(rng, n)
	}
	return out
}

// TestFusedTransformMatchesRadix2Oracle pins Transform — the in-place
// bit-reversal swaps and the fused two-stage passes — to the radix-2
// oracle bit for bit at every size from 1 to 2^14, so both odd stage
// counts (a plain radix-2 pass first) and even ones are covered.
func TestFusedTransformMatchesRadix2Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for lg := 0; lg <= 14; lg++ {
		n := 1 << lg
		p := NewPlan(n)
		for _, in := range oracleInputs {
			for round := 0; round < 3; round++ {
				re, im := fill(rng, n, in.draw), fill(rng, n, in.draw)
				x := make([]complex128, n)
				for i := range x {
					x[i] = complex(re[i], im[i])
				}
				want := append([]complex128(nil), x...)
				radix2Oracle(p, want)
				p.Transform(x)
				sameSpectrum(t, fmt.Sprintf("n=%d %s round %d", n, in.name, round), x, want)
			}
		}
	}
}

// TestFusedRealTransformMatchesRadix2Oracle pins RealTransform — the
// bit-reversing gather and the fused passes with no swap pass — to the
// linear pack and radix-2 oracle bit for bit at every size from 1 to
// 2^14, for signals of the plan's length, one short, odd, shorter than
// half the plan, empty and longer than the plan, each unwindowed, under
// a Gaussian window and under a window of special values.
func TestFusedRealTransformMatchesRadix2Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for lg := 0; lg <= 14; lg++ {
		n := 1 << lg
		p := NewPlan(n)
		lengths := []int{n, n - 1, 2*rng.Intn(n/2+1) + 1, rng.Intn(n/2 + 1), 0, n + 3}
		for _, in := range oracleInputs {
			for _, ns := range lengths {
				x := fill(rng, ns, in.draw)
				windows := map[string][]float64{
					"no window":       nil,
					"gaussian window": fill(rng, ns+rng.Intn(3), oracleInputs[0].draw),
					"special window":  fill(rng, ns, oracleInputs[3].draw),
				}
				for wname, w := range windows {
					label := fmt.Sprintf("n=%d %s, %d samples, %s", n, in.name, ns, wname)
					sameSpectrum(t, label, p.RealTransform(nil, x, w), realOracle(p, x, w))
				}
			}
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
