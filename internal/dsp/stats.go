package dsp

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics. The input slice is sorted in
// place; pass a copy if the order matters. An empty input returns NaN.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// Median returns the 50th percentile of xs (sorts in place).
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance, or NaN for empty input.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, v := range xs {
		d := v - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MovingAverageInto returns the centered moving average of xs with the
// given odd window size; edges use a shrunken window. It writes into
// dst when it has the right length (allocating otherwise), for
// allocation-free per-frame smoothing. xs and dst must not alias.
func MovingAverageInto(xs []float64, window int, dst []float64) []float64 {
	if window < 1 {
		window = 1
	}
	half := window / 2
	out := dst
	if len(out) != len(xs) {
		out = make([]float64, len(xs))
	}
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi > len(xs)-1 {
			hi = len(xs) - 1
		}
		sum := 0.0
		for j := lo; j <= hi; j++ {
			sum += xs[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}
