package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Plan holds everything a fixed-size FFT needs precomputed: the
// bit-reversal permutation (as a swap list) and one twiddle-factor table
// per butterfly stage, so the transform itself runs with zero trig calls,
// zero recurrences, and zero allocations. A Plan also carries the
// half-size plan and the split-radix twiddles used by the real-input
// transform (RealTransform), which exploits conjugate symmetry to do a
// length-n real FFT with a single length-n/2 complex FFT.
//
// Plans are immutable after construction and safe for concurrent use by
// any number of goroutines; callers that need scratch buffers (the
// real-input output, for instance) own those buffers themselves. Use
// PlanFor to share plans through the global per-size cache, or NewPlan
// for a private instance.
type Plan struct {
	n int
	// swaps lists the (i, j) index pairs, i < j, exchanged by the
	// bit-reversal permutation.
	swaps [][2]int32
	// stages[s] is the twiddle table of butterfly stage s (size 2<<s):
	// stages[s][k] = exp(-2*pi*i*k/(2<<s)) for k < 1<<s. Unit-stride
	// tables beat a single strided table on cache behavior, and reading
	// exact precomputed values eliminates the numerically drifting
	// w *= wBase recurrence of the old FFT.
	stages [][]complex128
	// half is the n/2-point plan backing RealTransform (nil for n < 2).
	half *Plan
	// realTw[k] = exp(-2*pi*i*k/n) for k <= n/4: the post-processing
	// twiddles that unpack the half-size complex FFT into the real
	// signal's spectrum.
	realTw []complex128
}

// NewPlan precomputes an FFT plan for size n. n must be a power of two
// (and >= 1); NewPlan panics otherwise, mirroring the legacy FFT's
// contract.
func NewPlan(n int) *Plan {
	return newPlan(n, true)
}

// newPlan builds the plan; withReal selects whether the real-input
// machinery (the half-size plan and split twiddles) is included. The
// embedded half-size plan only ever runs Transform, so it skips its own
// real machinery — without this the half chain would recurse to size 1,
// doubling table memory and construction work per size.
func newPlan(n int, withReal bool) *Plan {
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	p := &Plan{n: n}
	if n == 1 {
		return p
	}
	// Bit-reversal swap list.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			p.swaps = append(p.swaps, [2]int32{int32(i), int32(j)})
		}
	}
	// Per-stage twiddle tables, each entry evaluated directly from trig
	// (no recurrence, so the last entry is as accurate as the first).
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		tw := make([]complex128, half)
		for k := 0; k < half; k++ {
			sn, cs := math.Sincos(-2 * math.Pi * float64(k) / float64(size))
			tw[k] = complex(cs, sn)
		}
		p.stages = append(p.stages, tw)
	}
	// Real-input machinery.
	if withReal {
		p.half = newPlan(n/2, false)
		p.realTw = make([]complex128, n/4+1)
		for k := range p.realTw {
			sn, cs := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
			p.realTw[k] = complex(cs, sn)
		}
	}
	return p
}

// Size returns the transform length the plan was built for.
func (p *Plan) Size() int { return p.n }

// Transform computes the in-place unnormalized FFT of x, which must have
// exactly the plan's size. It allocates nothing.
func (p *Plan) Transform(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: Transform on %d samples with a %d-point plan", len(x), p.n))
	}
	for _, s := range p.swaps {
		x[s[0]], x[s[1]] = x[s[1]], x[s[0]]
	}
	n := p.n
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

// Inverse computes the in-place inverse FFT of x, including the 1/N
// scaling. It allocates nothing.
func (p *Plan) Inverse(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: Inverse on %d samples with a %d-point plan", len(x), p.n))
	}
	for i := range x {
		x[i] = complex(real(x[i]), -imag(x[i]))
	}
	p.Transform(x)
	inv := 1 / float64(p.n)
	for i := range x {
		x[i] = complex(real(x[i])*inv, -imag(x[i])*inv)
	}
}

// RealTransform computes the FFT of the real signal x — optionally
// windowed, zero-padded (or truncated) to the plan size — and writes the
// n/2+1 non-negative-frequency bins into dst, returning it (dst is
// reallocated only when its length is not n/2+1). The remaining bins of
// the full complex transform are redundant by conjugate symmetry:
// X[n-k] = conj(X[k]).
//
// The implementation packs even samples into real parts and odd samples
// into imaginary parts, runs one half-size complex FFT, and unpacks with
// the precomputed split twiddles — half the butterflies of the complex
// transform the legacy path used. If window is non-nil it must cover x
// (len(window) >= len(x)); sample i is multiplied by window[i] before
// the transform, fusing the windowing pass into the packing pass.
func (p *Plan) RealTransform(dst []complex128, x []float64, window []float64) []complex128 {
	if p.n == 1 {
		if len(dst) != 1 {
			dst = make([]complex128, 1)
		}
		p.packReal(dst, x, window)
		return dst
	}
	h := p.n / 2
	if len(dst) != h+1 {
		dst = make([]complex128, h+1)
	}
	p.packReal(dst, x, window)
	p.half.Transform(dst[:h])
	p.unpackReal(dst)
	return dst
}

// packReal writes the real-input packing of x into dst: for n == 1 the
// single (windowed) sample, otherwise z[k] = x[2k] + i*x[2k+1]
// (windowed, zero-padded) into dst[:n/2] with dst[n/2] untouched.
func (p *Plan) packReal(dst []complex128, x []float64, window []float64) {
	if len(x) > p.n {
		x = x[:p.n]
	}
	if window != nil && len(window) < len(x) {
		panic(fmt.Sprintf("dsp: window of %d samples cannot cover %d-sample signal", len(window), len(x)))
	}
	if p.n == 1 {
		v := 0.0
		if len(x) > 0 {
			v = x[0]
			if window != nil {
				v *= window[0]
			}
		}
		dst[0] = complex(v, 0)
		return
	}
	h := p.n / 2
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

// unpackReal converts the in-place half-size transform in dst[:n/2] into
// the real signal's n/2+1 spectrum bins. With Z the half-size transform,
// E[k] = (Z[k]+conj(Z[h-k]))/2 and O[k] = -i/2*(Z[k]-conj(Z[h-k])) are
// the spectra of the even and odd samples, and X[k] = E[k] + W^k*O[k],
// X[h-k] = conj(E[k]-W^k*O[k]) with W = exp(-2*pi*i/n). The k and h-k
// bins are computed pairwise so the unpack runs in place.
func (p *Plan) unpackReal(dst []complex128) {
	h := p.n / 2
	z0 := dst[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[h] = complex(real(z0)-imag(z0), 0)
	for k := 1; k <= h/2; k++ {
		zk := dst[k]
		zm := dst[h-k]
		e := complex((real(zk)+real(zm))/2, (imag(zk)-imag(zm))/2)
		o := complex((imag(zk)+imag(zm))/2, (real(zm)-real(zk))/2)
		wo := p.realTw[k] * o
		dst[k] = e + wo
		dst[h-k] = complex(real(e)-real(wo), -(imag(e) - imag(wo)))
	}
}

// planCache shares immutable plans across the process, one per size, so
// every FFT of a given length pays the table construction exactly once.
// sync.Map gives lock-free reads on the hot lookup path and tolerates
// concurrent first-use from any number of pipeline workers.
var planCache sync.Map // int -> *Plan

// PlanFor returns the shared plan for size n, building and caching it on
// first use. It panics if n is not a power of two (or < 1). Concurrent
// callers may race to build the same plan; one winner is kept, so two
// callers always observe the same instance.
func PlanFor(n int) *Plan {
	if v, ok := planCache.Load(n); ok {
		return v.(*Plan)
	}
	v, _ := planCache.LoadOrStore(n, NewPlan(n))
	return v.(*Plan)
}
