package fmcw

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"witrack/internal/dsp"
)

// testPaths builds a realistic path set: a strong static reflector plus
// two weaker movers, the shape of a through-wall frame.
func testPaths(rng *rand.Rand) []Path {
	mk := func(rt, pow float64) Path {
		return Path{RoundTrip: rt, PowerWatts: pow, Phase: rng.Float64() * 2 * math.Pi}
	}
	return []Path{
		mk(4+rng.Float64(), 1e-6),
		mk(8+3*rng.Float64(), 1e-9),
		mk(10+4*rng.Float64(), 3e-10),
	}
}

// TestFloat64SweepPathUnchangedByBatching pins the batched sweep path
// to the historical sweep-at-a-time processing: transforming each sweep
// with RealTransform and accumulating serially must equal the frame the
// one-call RFFTSpans batch produces, bit for bit (this is what keeps the
// golden digests valid).
func TestFloat64SweepPathUnchangedByBatching(t *testing.T) {
	s := NewSynthesizer(Default())
	rng := rand.New(rand.NewSource(7))
	ws := s.NewSweepScratch()
	for frame := 0; frame < 4; frame++ {
		paths := testPaths(rng)
		sweeps := make([][]float64, s.cfg.SweepsPerFrame)
		for i := range sweeps {
			sweeps[i] = s.SynthesizeSweep(paths, rng)
		}
		got := s.ComplexFrameFromSweepsInto(nil, sweeps, ws)

		nb := s.cfg.RangeBins()
		want := make(dsp.ComplexFrame, nb)
		var spec []complex128
		for _, sw := range sweeps {
			spec = s.plan.RealTransform(spec, sw, s.window)
			for i := range want {
				want[i] += spec[i]
			}
		}
		inv := complex(1/float64(len(sweeps)), 0)
		for i := range want {
			want[i] *= inv
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("frame %d bin %d: batched %v != sweep-at-a-time %v", frame, i, got[i], want[i])
			}
		}
	}
}

// TestSweepScratchAllocFree verifies the arena contract: a warm
// scratch processes frames with zero heap allocations.
func TestSweepScratchAllocFree(t *testing.T) {
	s := NewSynthesizer(Default())
	rng := rand.New(rand.NewSource(3))
	paths := testPaths(rng)
	sweeps := make([][]float64, s.cfg.SweepsPerFrame)
	for i := range sweeps {
		sweeps[i] = s.SynthesizeSweep(paths, rng)
	}
	ws := s.NewSweepScratch()
	dst := make(dsp.ComplexFrame, s.cfg.RangeBins())
	dst = s.ComplexFrameFromSweepsInto(dst, sweeps, ws) // warm
	allocs := testing.AllocsPerRun(50, func() {
		dst = s.ComplexFrameFromSweepsInto(dst, sweeps, ws)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per warm frame, want 0", allocs)
	}
}

// TestSweepScratchResizesArena pins the arena contract across frame
// shapes: a scratch that has just processed a frame with more or fewer
// sweeps than SweepsPerFrame resizes its RFFT arena for it and back
// again, so both frames match a fresh scratch bit for bit on either
// entry point.
func TestSweepScratchResizesArena(t *testing.T) {
	cfg := Default()
	cfg.ADCBits = 14
	s := NewSynthesizer(cfg)
	rng := rand.New(rand.NewSource(4))
	paths := testPaths(rng)
	q := NewQuantizer(cfg.ADCBits, ADCFullScale(paths, cfg.NoiseFloorWatts))
	frame := func(count int) ([][]float64, [][]int16) {
		sweeps := make([][]float64, count)
		codes := make([][]int16, count)
		for i := range sweeps {
			sweeps[i] = s.SynthesizeSweep(paths, rng)
			codes[i] = q.Quantize(nil, sweeps[i])
		}
		return sweeps, codes
	}
	same := func(label string, got, want dsp.ComplexFrame) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: bin %d is %v on the reused scratch, %v on a fresh one", label, i, got[i], want[i])
			}
		}
	}
	ws := s.NewSweepScratch()
	normal, normal16 := frame(cfg.SweepsPerFrame)
	for _, count := range []int{1, cfg.SweepsPerFrame + 3} {
		odd, odd16 := frame(count)
		label := fmt.Sprintf("%d sweeps", count)
		same(label, s.ComplexFrameFromSweepsInto(nil, odd, ws), s.ComplexFrameFromSweepsInto(nil, odd, s.NewSweepScratch()))
		same(label+" then normal", s.ComplexFrameFromSweepsInto(nil, normal, ws), s.ComplexFrameFromSweepsInto(nil, normal, s.NewSweepScratch()))
		same(label+" int16", s.ComplexFrameFromSweepsInt16Into(nil, odd16, q.Scale(), ws),
			s.ComplexFrameFromSweepsInt16Into(nil, odd16, q.Scale(), s.NewSweepScratch()))
		same(label+" int16 then normal", s.ComplexFrameFromSweepsInt16Into(nil, normal16, q.Scale(), ws),
			s.ComplexFrameFromSweepsInt16Into(nil, normal16, q.Scale(), s.NewSweepScratch()))
	}
}
