package fmcw

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"witrack/internal/dsp"
)

// referenceKernel is the kernel loop NewSynthesizer ran inline before
// tables were cached, kept as the oracle every cached table must match
// bit for bit.
func referenceKernel(cfg Config) []complex128 {
	ns, n := cfg.SamplesPerSweep(), cfg.FFTSize()
	w := dsp.Hann(ns)
	steps := int(2*kernelHalfWidth*kernelOversample) + 1
	step := 1.0 / kernelOversample
	out := make([]complex128, steps)
	for i := 0; i < steps; i++ {
		delta := -kernelHalfWidth + float64(i)*step
		var acc complex128
		for t := 0; t < ns; t++ {
			angle := -2 * math.Pi * delta * float64(t) / float64(n)
			acc += complex(w[t], 0) * cmplx.Exp(complex(0, angle))
		}
		out[i] = acc
	}
	return out
}

func sameKernelBits(t *testing.T, label string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: table has %d entries, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: entry %d is %v, fresh computation %v", label, i, got[i], want[i])
		}
	}
}

// shapeRadio is a valid radio with ns samples per sweep: the range is
// trimmed so even short sweeps keep the beat spectrum inside Nyquist.
func shapeRadio(t *testing.T, ns int) Config {
	t.Helper()
	c := Default()
	c.MaxRange = 5
	c.SampleRate = float64(ns) / c.SweepTime
	if got := c.SamplesPerSweep(); got != ns {
		t.Fatalf("radio for %d samples per sweep has %d", ns, got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// resetKernelCache empties the process-wide kernel cache so a test sees
// it fill from nothing. Synthesizers built earlier keep their tables.
func resetKernelCache() {
	kernelCache.Lock()
	kernelCache.tables = nil
	kernelCache.Unlock()
}

func cachedShapes() int {
	kernelCache.Lock()
	defer kernelCache.Unlock()
	return len(kernelCache.tables)
}

// TestKernelTableSharedPerRadio: two synthesizers of one radio share
// one kernel table, and that table is bit-identical to computing it
// afresh, for both radio shapes the repo configures (the paper's
// 2,500-sample sweep and the compact 320-sample one).
func TestKernelTableSharedPerRadio(t *testing.T) {
	compact := Default()
	compact.SampleRate = 128e3
	compact.MaxRange = 11
	for _, cfg := range []Config{Default(), compact} {
		label := fmt.Sprintf("radio with %d samples per sweep", cfg.SamplesPerSweep())
		a, b := NewSynthesizer(cfg), NewSynthesizer(cfg)
		if &a.kernel[0] != &b.kernel[0] {
			t.Fatalf("%s: two synthesizers built separate kernel tables", label)
		}
		sameKernelBits(t, label, a.kernel, referenceKernel(cfg))
	}
}

// TestKernelTablePastCacheCapacity fills the cache to its capacity and
// then builds a synthesizer for one more radio shape: it must get the
// identical table, built privately, and the cache must not grow.
func TestKernelTablePastCacheCapacity(t *testing.T) {
	resetKernelCache()
	for i := 0; i < kernelCacheCap; i++ {
		NewSynthesizer(shapeRadio(t, 60+i))
	}
	if n := cachedShapes(); n != kernelCacheCap {
		t.Fatalf("cache holds %d shapes after %d radios, want %d", n, kernelCacheCap, kernelCacheCap)
	}
	extra := shapeRadio(t, 60+kernelCacheCap)
	s := NewSynthesizer(extra)
	if n := cachedShapes(); n != kernelCacheCap {
		t.Fatalf("cache grew to %d shapes past its capacity %d", n, kernelCacheCap)
	}
	sameKernelBits(t, "radio past the cache capacity", s.kernel, referenceKernel(extra))
	// A cached shape is still served from the cache.
	first := shapeRadio(t, 60)
	if a, b := NewSynthesizer(first), NewSynthesizer(first); &a.kernel[0] != &b.kernel[0] {
		t.Fatal("a cached shape stopped sharing its table once the cache was full")
	}
}

// TestKernelTableConcurrentNewSynthesizer builds synthesizers from many
// goroutines at once, all racing to fill the same empty cache entries:
// every synthesizer of one radio must end up with the one shared table,
// bit-identical to a fresh computation. Run under -race it is the
// data-race proof for the cache.
func TestKernelTableConcurrentNewSynthesizer(t *testing.T) {
	resetKernelCache()
	radios := []Config{shapeRadio(t, 100), shapeRadio(t, 200), shapeRadio(t, 300)}
	const goroutines = 16
	got := make([][]*Synthesizer, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]*Synthesizer, len(radios))
		wg.Add(1)
		go func(built []*Synthesizer, first int) {
			defer wg.Done()
			// Each goroutine starts at a different radio, so every entry
			// is contended by callers arriving in different orders.
			for i := range radios {
				r := (first + i) % len(radios)
				built[r] = NewSynthesizer(radios[r])
			}
		}(got[g], g)
	}
	wg.Wait()
	for r, radio := range radios {
		sameKernelBits(t, fmt.Sprintf("radio %d built concurrently", r), got[0][r].kernel, referenceKernel(radio))
		for g := range got {
			if &got[g][r].kernel[0] != &got[0][r].kernel[0] {
				t.Fatalf("radio %d: goroutine %d got a different table than goroutine 0", r, g)
			}
		}
	}
}
