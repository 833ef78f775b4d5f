package dsp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Percentile(append([]float64(nil), xs...), 50) != 3 {
		t.Fatal("median of 1..5 should be 3")
	}
	if Percentile(append([]float64(nil), xs...), 0) != 1 {
		t.Fatal("p0 should be min")
	}
	if Percentile(append([]float64(nil), xs...), 100) != 5 {
		t.Fatal("p100 should be max")
	}
	if got := Percentile(append([]float64(nil), xs...), 25); got != 2 {
		t.Fatalf("p25 = %v, want 2", got)
	}
	if got := Percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Fatalf("interpolated median = %v, want 1.5", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty input should be NaN")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(append([]float64(nil), xs...), p)
			if v < prev || v < sorted[0] || v > sorted[n-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Variance(xs) != 4 {
		t.Fatalf("Variance = %v", Variance(xs))
	}
	if StdDev(xs) != 2 {
		t.Fatalf("StdDev = %v", StdDev(xs))
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Fatal("empty input should be NaN")
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 1, 10, 1, 1}
	sm := MovingAverageInto(xs, 3, nil)
	if sm[2] != 4 {
		t.Fatalf("center = %v, want (1+10+1)/3", sm[2])
	}
	if sm[0] != 1 { // shrunken edge window: (1+1)/2
		t.Fatalf("edge = %v", sm[0])
	}
	if got := MovingAverageInto(xs, 1, nil); !equalSlices(got, xs) {
		t.Fatalf("window 1 should be identity: %v", got)
	}
	if got := MovingAverageInto(xs, 0, nil); !equalSlices(got, xs) {
		t.Fatalf("window 0 should clamp to identity: %v", got)
	}
}

func equalSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
