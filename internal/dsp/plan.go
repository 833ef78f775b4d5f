package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Plan holds everything a fixed-size FFT needs precomputed: the
// bit-reversal permutation and one twiddle-factor table per butterfly
// stage, so the transform itself runs with zero trig calls, zero
// recurrences, and zero allocations. A Plan also carries the half-size
// plan and the split-radix twiddles used by the real-input transform
// (RealTransform), which exploits conjugate symmetry to do a length-n
// real FFT with a single length-n/2 complex FFT.
//
// The butterflies run two radix-2 stages per pass over memory (a
// radix-2² schedule): each pass loads four points, applies stage s's
// butterflies and then stage s+1's, and stores the four. Every output
// gets the floating-point operations of the one-stage-per-pass radix-2
// loop, on the same operands and in the same order, so the two agree
// bit for bit; the fused passes only halve the trips through memory.
//
// Plans are immutable after construction and safe for concurrent use by
// any number of goroutines; callers that need scratch buffers (the
// real-input output, for instance) own those buffers themselves. Use
// PlanFor to share plans through the global per-size cache, or NewPlan
// for a private instance.
type Plan struct {
	n int
	// rev is the bit-reversal permutation: rev[i] is i with its log2(n)
	// bits reversed. Transform swaps x[i] and x[rev[i]] in place before
	// its butterflies; the real-input packing gathers through the half
	// plan's table instead, so its stores land in bit-reversed order and
	// RealTransform needs no swap pass.
	rev []int32
	// stages[s] is the twiddle table of butterfly stage s (size 2<<s):
	// stages[s][k] = exp(-2*pi*i*k/(2<<s)) for k < 1<<s. With h = 1<<s,
	// a fused pass over stages s and s+1 reads stages[s][k],
	// stages[s+1][k] and stages[s+1][k+h] for each k < h, all three at
	// unit stride, and reading exact precomputed values eliminates the
	// numerically drifting w *= wBase recurrence of a twiddle generator.
	stages [][]complex128
	// half is the n/2-point plan backing RealTransform (nil for n < 2).
	half *Plan
	// realTw[k] = exp(-2*pi*i*k/n) for k <= n/4: the post-processing
	// twiddles that unpack the half-size complex FFT into the real
	// signal's spectrum.
	realTw []complex128
}

// NewPlan precomputes an FFT plan for size n. n must be a power of two
// (and >= 1); NewPlan panics otherwise.
func NewPlan(n int) *Plan {
	return newPlan(n, true)
}

// newPlan builds the plan; withReal selects whether the real-input
// machinery (the half-size plan and split twiddles) is included. The
// embedded half-size plan only ever runs butterflies, so it skips its
// own real machinery — without this the half chain would recurse to
// size 1, doubling table memory and construction work per size.
func newPlan(n int, withReal bool) *Plan {
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	p := &Plan{n: n, rev: make([]int32, n)}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range p.rev {
		p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	if n == 1 {
		return p
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
	x = x[:len(p.rev)]
	for i, r := range p.rev {
		if int(r) > i {
			x[i], x[r] = x[r], x[i]
		}
	}
	p.butterflies(x)
}

// butterflies runs every radix-2 stage over x, which holds the plan's n
// points in bit-reversed order, two stages per pass. An odd stage count
// takes one plain radix-2 pass first: that is stage 0, whose only
// twiddle is stages[0][0] = (1, -0). The k = 0 twiddles are multiplied
// like any other, as the radix-2 loop does: skipping them would change
// signed zeros and turn Inf·0 = NaN into a finite value.
func (p *Plan) butterflies(x []complex128) {
	s := 0
	if len(p.stages)%2 == 1 {
		w := p.stages[0][0]
		for i := 0; i+1 < len(x); i += 2 {
			even := x[i]
			odd := x[i+1] * w
			x[i], x[i+1] = even+odd, even-odd
		}
		s = 1
	}
	for ; s < len(p.stages); s += 2 {
		radix4Pass(x, p.stages[s], p.stages[s+1])
	}
}

// radix4Pass applies radix-2 stages s and s+1 to x in one pass, with t0
// = stages[s] and t1 = stages[s+1]. Each block of 4h points (h = 1<<s)
// holds, for every k < h, the four points k, k+h, k+2h and k+3h: stage
// s pairs k with k+h and k+2h with k+3h under t0[k], then stage s+1
// pairs k with k+2h under t1[k] and k+h with k+3h under t1[k+h]. Every
// product and sum is the radix-2 loop's, operands in the same order.
func radix4Pass(x, t0, t1 []complex128) {
	h := len(t0)
	lo, hi := t1[:h], t1[h:][:h]
	for start := 0; start < len(x); start += 4 * h {
		blk := x[start:]
		a, b, c, d := blk[:h], blk[h:][:h], blk[2*h:][:h], blk[3*h:][:h]
		for k, w := range t0 {
			odd := b[k] * w
			y0, y1 := a[k]+odd, a[k]-odd
			odd = d[k] * w
			y2, y3 := c[k]+odd, c[k]-odd
			odd = y2 * lo[k]
			a[k], c[k] = y0+odd, y0-odd
			odd = y3 * hi[k]
			b[k], d[k] = y1+odd, y1-odd
		}
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
// the precomputed split twiddles — half the butterflies of a complex
// transform of the same length. If window is non-nil it must cover x
// (len(window) >= len(x)); sample i is multiplied by window[i] before
// the transform, fusing the windowing pass into the packing pass. The
// packing writes its points in bit-reversed order, so the half-size
// transform runs its butterflies with no swap pass.
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
	p.half.butterflies(dst[:h])
	p.unpackReal(dst)
	return dst
}

// packReal writes the real-input packing of x into dst: for n == 1 the
// single (windowed) sample, otherwise z[k] = x[2k] + i*x[2k+1]
// (windowed, zero-padded) into dst[:n/2] in bit-reversed order — slot i
// holds z[rev[i]] of the half plan — with dst[n/2] untouched. Gathering
// through the table keeps every store sequential.
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
	rev := p.half.rev
	dst = dst[:len(rev)]
	pairs := len(x) / 2 // points with both samples in x
	for i, r := range rev {
		j := 2 * int(r)
		var re, im float64
		if int(r) < pairs {
			re, im = x[j], x[j+1]
			if window != nil {
				re *= window[j]
				im *= window[j+1]
			}
		} else if j < len(x) {
			re = x[j]
			if window != nil {
				re *= window[j]
			}
		}
		dst[i] = complex(re, im)
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
