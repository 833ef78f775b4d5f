package track

import (
	"math"
	"math/rand"
	"testing"

	"witrack/internal/dsp"
)

// storedMean is the calibration average as it was computed before
// AverageBackground streamed its input: every frame held in a slice,
// summed in order, then scaled by 1/n.
func storedMean(frames []dsp.ComplexFrame) dsp.ComplexFrame {
	if len(frames) == 0 {
		return nil
	}
	acc := make(dsp.ComplexFrame, len(frames[0]))
	for _, f := range frames {
		for i := range acc {
			acc[i] += f[i]
		}
	}
	inv := complex(1/float64(len(frames)), 0)
	for i := range acc {
		acc[i] *= inv
	}
	return acc
}

// TestAverageBackgroundMatchesStoredMean pins the streaming calibration
// average to the stored one bit for bit, so an installed background, and
// every calibrated fix after it, is unchanged by streaming.
func TestAverageBackgroundMatchesStoredMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 7, 40} {
		frames := make([]dsp.ComplexFrame, n)
		for j := range frames {
			f := make(dsp.ComplexFrame, 33)
			for i := range f {
				f[i] = complex(rng.NormFloat64()*1e3, rng.NormFloat64()*1e-3)
			}
			f[0] = complex(math.Copysign(0, -1), math.Inf(1-2*(j%2)))
			frames[j] = f
		}
		next := 0
		got := AverageBackground(n, func() dsp.ComplexFrame {
			next++
			return frames[next-1]
		})
		want := storedMean(frames)
		if next != n || (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("n=%d: drew %d frames, got %d bins, want %d", n, next, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				t.Fatalf("n=%d bin %d: %v, want %v", n, i, g, w)
			}
		}
	}
}
