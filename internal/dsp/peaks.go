package dsp

// Peak is a local maximum in a frame.
type Peak struct {
	Bin   int
	Power float64
}

// NeighborhoodMaximaInto appends to dst[:0] the bins that are the
// strict maximum of their +-halfWin neighborhood and at least
// threshold, in increasing bin order, so per-frame callers can reuse a
// peak buffer across calls. With halfWin above 1 it ignores 1-bin noise
// ripples riding on the flank of a wide reflection blob — those would
// otherwise bias the bottom contour toward shorter distances.
func NeighborhoodMaximaInto(f Frame, threshold float64, halfWin int, dst []Peak) []Peak {
	peaks := dst[:0]
	n := len(f)
	for i := 1; i < n-1; i++ {
		if ok, _ := neighborhoodMaxAt(f, i, threshold, halfWin); ok {
			peaks = append(peaks, Peak{Bin: i, Power: f[i]})
		}
	}
	return peaks
}

// neighborhoodMaxAt reports whether interior bin i is a strict maximum
// of its +-halfWin neighborhood and at least threshold.
func neighborhoodMaxAt(f Frame, i int, threshold float64, halfWin int) (bool, float64) {
	if halfWin < 1 {
		halfWin = 1
	}
	if f[i] < threshold {
		return false, 0
	}
	n := len(f)
	lo, hi := i-halfWin, i+halfWin
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	for j := lo; j <= hi; j++ {
		if j == i {
			continue
		}
		if f[j] > f[i] || (f[j] == f[i] && j < i) {
			return false, 0
		}
	}
	return true, f[i]
}

// FirstBlobPeak is the production bottom-contour rule: the lowest-bin
// neighborhood maximum above threshold. It scans without materializing
// the full maxima list — the per-frame hot path allocates nothing.
func FirstBlobPeak(f Frame, threshold float64, halfWin int) (Peak, bool) {
	for i := 1; i < len(f)-1; i++ {
		if ok, p := neighborhoodMaxAt(f, i, threshold, halfWin); ok {
			return Peak{Bin: i, Power: p}, true
		}
	}
	return Peak{}, false
}

// StrongestPeak returns the global maximum of the frame; used as the
// ablation baseline (§4.3 notes contour tracking is more robust than
// tracking the dominant frequency).
func StrongestPeak(f Frame) (Peak, bool) {
	if len(f) == 0 {
		return Peak{}, false
	}
	best := Peak{Bin: 0, Power: f[0]}
	for i, v := range f {
		if v > best.Power {
			best = Peak{Bin: i, Power: v}
		}
	}
	return best, best.Power > 0
}

// RefineParabolic improves a peak's bin estimate to sub-bin precision by
// fitting a parabola through the peak sample and its two neighbors.
// This is the standard FMCW interpolation trick and is what lets the
// pipeline do better than the raw C/2B bin quantization.
func RefineParabolic(f Frame, bin int) float64 {
	if bin <= 0 || bin >= len(f)-1 {
		return float64(bin)
	}
	a, b, c := f[bin-1], f[bin], f[bin+1]
	denom := a - 2*b + c
	if denom == 0 {
		return float64(bin)
	}
	delta := 0.5 * (a - c) / denom
	if delta > 0.5 {
		delta = 0.5
	} else if delta < -0.5 {
		delta = -0.5
	}
	return float64(bin) + delta
}
