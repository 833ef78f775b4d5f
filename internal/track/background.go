package track

import "witrack/internal/dsp"

// SetBackground installs a calibrated empty-room background frame. When
// set, the tracker subtracts this profile instead of the previous frame
// — the paper's §10 proposal for localizing a *static* user: consecutive
// -sweep subtraction erases anyone who stops moving, but a background
// learned while the space was empty preserves them.
//
// Pass nil to return to consecutive-frame subtraction.
func (t *Tracker) SetBackground(bg dsp.ComplexFrame) {
	if bg == nil {
		t.background = nil
		return
	}
	t.background = bg.Clone()
}

// HasBackground reports whether a calibrated background is installed.
func (t *Tracker) HasBackground() bool { return t.background != nil }

// AverageBackground builds a calibration profile from n frames captured
// while the space is empty, taken in order from next: the static
// environment adds coherently while receiver noise averages out. It
// holds only the running sum, so its memory is one frame whatever n is.
func AverageBackground(n int, next func() dsp.ComplexFrame) dsp.ComplexFrame {
	var acc dsp.ComplexFrame
	for j := 0; j < n; j++ {
		f := next()
		if acc == nil {
			acc = make(dsp.ComplexFrame, len(f))
		}
		for i := range acc {
			acc[i] += f[i]
		}
	}
	if acc == nil {
		return nil
	}
	inv := complex(1/float64(n), 0)
	for i := range acc {
		acc[i] *= inv
	}
	return acc
}
