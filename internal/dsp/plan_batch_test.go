package dsp

import (
	"math/rand"
	"testing"
)

// randSignal fills a complex test vector from a seeded generator.
func randSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// sequentialRFFT is the reference every batched real-FFT oracle
// compares against: RealTransform on each sweep in turn, the
// sweep-at-a-time processing, laid out as RFFTSpans lays out a span.
func sequentialRFFT(p *Plan, sweeps [][]float64, window []float64) []complex128 {
	var out []complex128
	for _, sw := range sweeps {
		out = append(out, p.RealTransform(nil, sw, window)...)
	}
	return out
}

// TestRFFTBatchBitIdentical is the batching oracle for one frame: for
// random B in {1..8}, a one-span RFFTSpans call's per-sweep output
// segments must be bit-identical to B sequential RealTransform calls,
// with and without a window, including short (zero-padded) sweeps.
func TestRFFTBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	sizes := []int{2, 4, 8, 64, 512, 1024}
	for trial := 0; trial < 200; trial++ {
		n := sizes[rng.Intn(len(sizes))]
		batch := 1 + rng.Intn(8)
		p := PlanFor(n)
		var window []float64
		if rng.Intn(2) == 0 {
			window = Hann(n)
		}
		sweeps := make([][]float64, batch)
		for i := range sweeps {
			ln := n
			if rng.Intn(4) == 0 {
				ln = 1 + rng.Intn(n) // zero-padded short sweep
			}
			sw := make([]float64, ln)
			for j := range sw {
				sw[j] = rng.NormFloat64()
			}
			sweeps[i] = sw
		}

		seg := n/2 + 1
		span := []RFFTSpan{{Dst: make([]complex128, batch*seg), Sweeps: sweeps, Window: window}}
		p.RFFTSpans(span, nil)
		got := span[0].Dst
		for i, sw := range sweeps {
			want := p.RealTransform(nil, sw, window)
			for k := range want {
				if got[i*seg+k] != want[k] {
					t.Fatalf("trial %d (n=%d B=%d): sweep %d bin %d diverged: batch %v, sequential %v",
						trial, n, batch, i, k, got[i*seg+k], want[k])
				}
			}
		}
	}
}

// TestTransformSegsBitIdentical extends the batching oracle to the
// caller-owned segment-list form: for random collections of separately
// allocated segments, TransformSegs must be bit-identical to sequential
// Transform calls on each segment.
func TestTransformSegsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	sizes := []int{1, 2, 4, 8, 64, 256, 1024}
	for trial := 0; trial < 200; trial++ {
		n := sizes[rng.Intn(len(sizes))]
		count := 1 + rng.Intn(12)
		p := PlanFor(n)

		segs := make([][]complex128, count)
		seq := make([][]complex128, count)
		for i := range segs {
			segs[i] = randSignal(rng, n)
			seq[i] = append([]complex128(nil), segs[i]...)
		}

		p.TransformSegs(segs)
		for i := range seq {
			p.Transform(seq[i])
			for k := range seq[i] {
				if segs[i][k] != seq[i][k] {
					t.Fatalf("trial %d (n=%d count=%d): segment %d sample %d diverged: segs %v, sequential %v",
						trial, n, count, i, k, segs[i][k], seq[i][k])
				}
			}
		}
	}
}

// TestRFFTSpansBitIdentical is the multi-span oracle: a combined
// RFFTSpans call over several spans — each a separate frame's sweeps,
// living in separate allocations — must leave every span's dst bit-identical to
// transforming its sweeps one at a time with RealTransform.
func TestRFFTSpansBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	sizes := []int{2, 4, 8, 64, 512}
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
			sweeps := make([][]float64, batch)
			for i := range sweeps {
				ln := n
				if rng.Intn(4) == 0 {
					ln = 1 + rng.Intn(n)
				}
				sw := make([]float64, ln)
				for j := range sw {
					sw[j] = rng.NormFloat64()
				}
				sweeps[i] = sw
			}
			spans[si] = RFFTSpan{Dst: make([]complex128, batch*seg), Sweeps: sweeps, Window: window}
			want[si] = sequentialRFFT(p, sweeps, window)
		}

		p.RFFTSpans(spans, nil)
		for si, sp := range spans {
			for k := range want[si] {
				if sp.Dst[k] != want[si][k] {
					t.Fatalf("trial %d (n=%d span=%d): bin %d diverged: combined %v, sequential %v",
						trial, n, si, k, sp.Dst[k], want[si][k])
				}
			}
		}
	}
}

// TestRFFTSpansBadDstPanics pins the sizing contract: a span whose dst
// is not len(sweeps)*(n/2+1) bins is a programmer error, refused before
// any foreign arena is touched.
func TestRFFTSpansBadDstPanics(t *testing.T) {
	p := PlanFor(64)
	defer func() {
		if recover() == nil {
			t.Fatal("RFFTSpans accepted a mis-sized dst")
		}
	}()
	p.RFFTSpans([]RFFTSpan{{Dst: make([]complex128, 10), Sweeps: [][]float64{make([]float64, 64)}}}, nil)
}

// BenchmarkRFFTSpans measures one combined multi-span transform
// against the same work issued as one RFFTSpans call per span, the way
// the daemon's sessions issue it. The shape mirrors the sweep-domain
// service workload: 8 sessions' frames of 8 sweeps × 320 samples,
// zero-padded into 512-point transforms.
func BenchmarkRFFTSpans(b *testing.B) {
	const (
		n      = 512
		ns     = 320
		spans  = 8
		sweeps = 8
	)
	p := PlanFor(n)
	window := Hann(ns)
	rng := rand.New(rand.NewSource(5))
	seg := n/2 + 1
	all := make([]RFFTSpan, spans)
	for s := range all {
		sw := make([][]float64, sweeps)
		for i := range sw {
			sw[i] = make([]float64, ns)
			for j := range sw[i] {
				sw[i][j] = rng.NormFloat64()
			}
		}
		all[s] = RFFTSpan{Dst: make([]complex128, sweeps*seg), Sweeps: sw, Window: window}
	}

	b.Run("combined", func(b *testing.B) {
		var segs [][]complex128
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			segs = p.RFFTSpans(all, segs)
		}
	})
	b.Run("per-span", func(b *testing.B) {
		var segs [][]complex128
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := range all {
				segs = p.RFFTSpans(all[s:s+1], segs)
			}
		}
	})
}
