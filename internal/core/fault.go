package core

import (
	"fmt"
	"math"
	"time"

	"witrack/internal/dsp"
	"witrack/internal/fault"
)

// darkAfter is the consecutive-unhealthy-frame count past which an
// antenna is declared dark and excluded from the geometric solve. Below
// it, the antenna coasts on its tracker's hold interpolator (a brief
// glitch should not shrink the solve geometry); a tenth of a second of
// sustained damage means the hold value is going stale and an nRx-1 fix
// from the healthy antennas beats a fix anchored to a dead one.
const darkAfter = 8

// faultSource filters a FrameSource through the injector's whole-frame
// drop decisions. Dropping happens after the source produced the batch
// (its RNG is already consumed), so the frames that do survive are
// bit-identical to the fault-free run's — a dropped frame is a gap in
// the stream, not a perturbation of its neighbors. Index and T keep the
// source's values, so downstream consumers see the gap.
type faultSource struct {
	src FrameSource
	inj *fault.Injector
}

func (f *faultSource) NumRx() int            { return f.src.NumRx() }
func (f *faultSource) Recycle(b *FrameBatch) { f.src.Recycle(b) }

func (f *faultSource) Next() *FrameBatch {
	for {
		b := f.src.Next()
		if b == nil {
			return nil
		}
		if f.inj.DropFrame(b.Index) {
			f.src.Recycle(b)
			continue
		}
		return b
	}
}

// watchdogSource guards a FrameSource with a per-frame deadline: if the
// underlying Next does not deliver within the deadline, the stream ends
// and the stall is latched as a descriptive error instead of wedging
// the pipeline's workers forever. Next runs in a helper goroutine so
// the deadline can fire while it blocks; a source that never returns
// keeps that one goroutine parked (nothing can unblock third-party
// code), but the run itself completes and reports the stall.
type watchdogSource struct {
	src      FrameSource
	deadline time.Duration
	res      chan *FrameBatch
	stop     chan struct{}
	timer    *time.Timer
	started  bool
	stalled  bool
	err      error
}

func newWatchdogSource(src FrameSource, deadline time.Duration) *watchdogSource {
	return &watchdogSource{
		src:      src,
		deadline: deadline,
		res:      make(chan *FrameBatch),
		stop:     make(chan struct{}),
	}
}

func (w *watchdogSource) NumRx() int            { return w.src.NumRx() }
func (w *watchdogSource) Recycle(b *FrameBatch) { w.src.Recycle(b) }

func (w *watchdogSource) Next() *FrameBatch {
	if w.stalled {
		return nil
	}
	if !w.started {
		w.started = true
		go func() {
			for {
				b := w.src.Next()
				select {
				case w.res <- b:
					if b == nil {
						return
					}
				case <-w.stop:
					// The run is over (cancelled or already stalled);
					// hand the orphaned batch back before exiting.
					if b != nil {
						w.src.Recycle(b)
					}
					return
				}
			}
		}()
		w.timer = time.NewTimer(w.deadline)
	} else {
		w.timer.Reset(w.deadline)
	}
	select {
	case b := <-w.res:
		if !w.timer.Stop() {
			select {
			case <-w.timer.C:
			default:
			}
		}
		return b
	case <-w.timer.C:
		w.stalled = true
		w.err = fmt.Errorf("core: frame source stalled: no frame within the %v deadline", w.deadline)
		return nil
	}
}

// shutdown releases the helper goroutine (unless it is wedged inside
// the stalled source's Next, which nothing can interrupt). Called once,
// after the pipeline has fully drained.
func (w *watchdogSource) shutdown() {
	if w.started {
		close(w.stop)
		if w.timer != nil {
			w.timer.Stop()
		}
	}
}

// guardSource wraps src with the device's configured fault injector and
// frame-deadline watchdog (each only when enabled). The returned
// watchdog is nil when no deadline is set.
func guardSource(src FrameSource, inj *fault.Injector, deadline time.Duration) (FrameSource, *watchdogSource) {
	if inj != nil {
		src = &faultSource{src: src, inj: inj}
	}
	if deadline <= 0 {
		return src, nil
	}
	wd := newWatchdogSource(src, deadline)
	return wd, wd
}

// frameHealthy reports whether a frame is numerically usable: finite in
// every bin and not all-zero (a dark antenna delivers pure zeros, and
// feeding those to background subtraction would register the entire
// previous frame as motion energy). Cost is one linear scan; it runs
// only on monitored (fault-injected or explicitly monitored) pipelines.
func frameHealthy(f dsp.ComplexFrame) bool {
	power := 0.0
	for _, c := range f {
		re, im := real(c), imag(c)
		power += re*re + im*im
	}
	// NaN and Inf both poison the accumulated power, so one check covers
	// every bin; exact zero means no bin carried any energy at all.
	if power == 0 || math.IsNaN(power) || math.IsInf(power, 0) {
		return false
	}
	return true
}

// injectFault applies the injector's per-antenna decision for (frame,
// antenna) to the materialized frame and returns the frame to deliver.
// Corrupting kinds mutate a scratch copy, never the source's buffer (a
// trace source's frames belong to its recycling ring). When any
// schedule window replays stale frames, the delivered frame is also
// retained as this antenna's history.
func (w *antennaScratch) injectFault(inj *fault.Injector, frame, k int, f dsp.ComplexFrame) dsp.ComplexFrame {
	out := f
	switch kind := inj.Antenna(frame, k); kind {
	case fault.Stuck:
		if w.haveLast && len(w.last) == len(f) {
			out = append(w.faultBuf[:0], w.last...)
			w.faultBuf = out
		}
	case fault.Dark, fault.NaN, fault.Spike:
		out = append(w.faultBuf[:0], f...)
		w.faultBuf = out
		inj.Apply(kind, frame, k, out)
	}
	if inj.NeedsHistory() {
		w.last = append(w.last[:0], out...)
		w.haveLast = true
	}
	return out
}

// health updates the antenna's consecutive-unhealthy streak for the
// delivered frame and reports (healthy, dark): healthy selects Push vs
// Coast; dark excludes the antenna from the geometric solve.
func (w *antennaScratch) health(f dsp.ComplexFrame) (healthy, dark bool) {
	if frameHealthy(f) {
		w.badStreak = 0
		return true, false
	}
	w.badStreak++
	return false, w.badStreak >= darkAfter
}
