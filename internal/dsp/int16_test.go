package dsp

import (
	"math/rand"
	"testing"
)

// randSweepInt16 fills a quantized sweep with codes spanning most of a
// 14-bit range, the realistic ADC shape.
func randSweepInt16(rng *rand.Rand, n int) []int16 {
	sw := make([]int16, n)
	for j := range sw {
		sw[j] = int16(rng.Intn(1<<14) - 1<<13)
	}
	return sw
}

// dequant is the staged reference the fused kernels must match: the
// int16 sweep widened into a float64 buffer before any windowing.
func dequant(x []int16, scale float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = float64(v) * scale
	}
	return out
}

// TestWindowPackInt16MatchesStaged pins the fused kernel's arithmetic
// contract: a one-span int16 RFFTSpans call must be bit-identical to
// dequantizing every sweep into a float64 staging buffer and running
// RealTransform on it — same operations, same order, merely without
// the staging buffer. Covers windowed/unwindowed, short (zero-padded)
// and odd-length sweeps, so the unrolled main loop's tails are hit.
func TestWindowPackInt16MatchesStaged(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	sizes := []int{2, 4, 8, 64, 512, 1024}
	for trial := 0; trial < 200; trial++ {
		n := sizes[rng.Intn(len(sizes))]
		batch := 1 + rng.Intn(8)
		scale := 1.0 / float64(int64(1)<<uint(10+rng.Intn(6)))
		p := PlanFor(n)
		var window []float64
		if rng.Intn(2) == 0 {
			window = Hann(n)
		}
		sweeps := make([][]int16, batch)
		staged := make([][]float64, batch)
		for i := range sweeps {
			ln := n
			if rng.Intn(4) == 0 {
				ln = 1 + rng.Intn(n) // zero-padded short sweep, odd lengths included
			}
			sweeps[i] = randSweepInt16(rng, ln)
			staged[i] = dequant(sweeps[i], scale)
		}

		span := []RFFTSpan{{Dst: make([]complex128, batch*(n/2+1)), SweepsI16: sweeps, Scale: scale, Window: window}}
		p.RFFTSpans(span, nil)
		got := span[0].Dst
		want := sequentialRFFT(p, staged, window)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d (n=%d B=%d): bin %d diverged: fused %v, staged %v",
					trial, n, batch, k, got[k], want[k])
			}
		}
	}
}

// TestRFFTSpansInt16BitIdentical extends the multi-span oracle to
// quantized spans: a combined RFFTSpans call over a mix of
// int16 and float64 spans must leave every span's dst bit-identical to
// sequential RealTransform calls on its (dequantized) sweeps, so no span
// is disturbed by neighbors of the other encoding.
func TestRFFTSpansInt16BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	sizes := []int{2, 8, 64, 512}
	for trial := 0; trial < 200; trial++ {
		n := sizes[rng.Intn(len(sizes))]
		p := PlanFor(n)
		seg := n/2 + 1
		var window []float64
		if rng.Intn(2) == 0 {
			window = Hann(n)
		}
		count := 1 + rng.Intn(5)
		spans := make([]RFFTSpan, count)
		want := make([][]complex128, count)
		for si := range spans {
			batch := 1 + rng.Intn(6)
			if rng.Intn(2) == 0 {
				scale := 1.0 / float64(int64(1)<<13)
				sweeps := make([][]int16, batch)
				for i := range sweeps {
					ln := n
					if rng.Intn(4) == 0 {
						ln = 1 + rng.Intn(n)
					}
					sweeps[i] = randSweepInt16(rng, ln)
				}
				spans[si] = RFFTSpan{Dst: make([]complex128, batch*seg), SweepsI16: sweeps, Scale: scale, Window: window}
				staged := make([][]float64, batch)
				for i, sw := range sweeps {
					staged[i] = dequant(sw, scale)
				}
				want[si] = sequentialRFFT(p, staged, window)
			} else {
				sweeps := make([][]float64, batch)
				for i := range sweeps {
					sw := make([]float64, n)
					for j := range sw {
						sw[j] = rng.NormFloat64()
					}
					sweeps[i] = sw
				}
				spans[si] = RFFTSpan{Dst: make([]complex128, batch*seg), Sweeps: sweeps, Window: window}
				want[si] = sequentialRFFT(p, sweeps, window)
			}
		}

		p.RFFTSpans(spans, nil)
		for si, sp := range spans {
			for k := range want[si] {
				if sp.Dst[k] != want[si][k] {
					t.Fatalf("trial %d (n=%d span=%d): bin %d diverged: combined %v, per-span %v",
						trial, n, si, k, sp.Dst[k], want[si][k])
				}
			}
		}
	}
}

// BenchmarkRFFTSpansInt16 compares a fused int16 span against the
// staged dequantize-into-float64-then-transform alternative it
// replaces, on the sweep-domain service shape (8 sweeps × 320 samples,
// 512-point transforms).
func BenchmarkRFFTSpansInt16(b *testing.B) {
	const (
		n      = 512
		ns     = 320
		sweeps = 8
	)
	p := PlanFor(n)
	window := Hann(ns)
	rng := rand.New(rand.NewSource(6))
	scale := 1.0 / float64(int64(1)<<13)
	sw := make([][]int16, sweeps)
	for i := range sw {
		sw[i] = randSweepInt16(rng, ns)
	}
	dst := make([]complex128, sweeps*(n/2+1))

	b.Run("fused", func(b *testing.B) {
		span := []RFFTSpan{{Dst: dst, SweepsI16: sw, Scale: scale, Window: window}}
		var segs [][]complex128
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			segs = p.RFFTSpans(span, segs)
		}
	})
	b.Run("staged", func(b *testing.B) {
		staging := make([][]float64, sweeps)
		for i := range staging {
			staging[i] = make([]float64, ns)
		}
		span := []RFFTSpan{{Dst: dst, Sweeps: staging, Window: window}}
		var segs [][]complex128
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for si, s := range sw {
				for j, v := range s {
					staging[si][j] = float64(v) * scale
				}
			}
			segs = p.RFFTSpans(span, segs)
		}
	})
}
