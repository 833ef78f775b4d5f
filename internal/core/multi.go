package core

import (
	"context"

	"witrack/internal/body"
	"witrack/internal/dsp"
	"witrack/internal/geom"
	"witrack/internal/locate"
	"witrack/internal/motion"
	"witrack/internal/track"
)

// MultiDevice tracks k concurrent movers — the paper's §10 extension
// generalized: per-antenna k-TOF extraction, assignment disambiguation
// across the (k!)^nRx candidate-to-target bijections (locate.SolveK),
// and trajectory-continuity scoring. It embeds the same shell Device
// does and runs the same staged streaming pipeline; only the worker
// payload (a k-target tracker) and the fusion step (the joint assignment
// search) differ.
type MultiDevice struct {
	shell[*track.MultiTracker]
}

// MultiSample is one k-person output frame. Pos and Truth are in
// subject order and freshly allocated per sample (safe to retain).
type MultiSample struct {
	T     float64
	Pos   []geom.Vec3
	Valid bool
	// Degraded marks a joint fix solved on a reduced antenna subset (see
	// Sample.Degraded).
	Degraded bool
	Truth    []geom.Vec3
}

// MultiRunResult is the output of a k-person run.
type MultiRunResult struct {
	Samples []MultiSample
	Frames  int
}

// NewMultiDevice builds a k-person tracker: cfg.Subject is subject 0,
// the variadic others are subjects 1..k-1. The two-person §10
// configuration is NewMultiDevice(cfg, subjectB); with no extra
// subjects the device degenerates to a single-target tracker on the
// multi-target pipeline.
func NewMultiDevice(cfg Config, others ...body.Subject) (*MultiDevice, error) {
	subjects := append([]body.Subject{cfg.Subject}, others...)
	k := len(subjects)
	d := &MultiDevice{}
	if err := d.init(cfg, func(tc track.Config) *track.MultiTracker { return track.NewMulti(tc, k) }); err != nil {
		return nil, err
	}
	// The shell drew subject 0's body simulation, as the single-person
	// device does; every subject's simulation is drawn again after it.
	// That is the historical two-person constructor's RNG draw order,
	// which the multi-person golden digests pin.
	d.sims = make([]*bodySim, 0, k)
	for _, sub := range subjects {
		d.sims = append(d.sims, newBodySim(sub, len(cfg.Array.Rx), d.rng))
	}
	return d, nil
}

// NumSubjects returns k, the concurrent-target count.
func (d *MultiDevice) NumSubjects() int { return len(d.sims) }

// stream drives the staged pipeline over src and calls emit with each
// fused k-person sample in frame order. The association of output
// slots to people is carried frame to frame by SolveK's continuity
// term (the radio cannot know identities; the paper's §10 notes only
// trajectory consistency is available).
func (d *MultiDevice) stream(ctx context.Context, src FrameSource, emit func(s MultiSample) bool) {
	nRx := len(d.cfg.Array.Rx)
	k := len(d.sims)
	monitor := d.monitored()

	type multiResult struct {
		ests []track.Estimate
		dark bool
	}
	push := func(a int, frame dsp.ComplexFrame, healthy, dark bool) multiResult {
		if !healthy {
			return multiResult{ests: d.trackers[a].Coast(), dark: dark}
		}
		return multiResult{ests: d.trackers[a].Push(frame)}
	}

	prev := make([]geom.Vec3, k)
	havePrev := false
	cands := make([][]float64, nRx)
	candBuf := make([]float64, nRx*k)
	for a := range cands {
		cands[a] = candBuf[a*k : (a+1)*k : (a+1)*k]
	}
	// maskedCands compacts the healthy antennas' candidate rows for the
	// degraded sub-array assignment search.
	maskedCands := make([][]float64, 0, nRx)
	fuse := func(b *FrameBatch, rs []multiResult) bool {
		ok := true
		healthyCount := 0
		var mask uint64
		for a := 0; a < nRx; a++ {
			ests := rs[a].ests
			valid := true
			for c := 0; c < k; c++ {
				if !ests[c].Valid {
					valid = false
					break
				}
			}
			if !valid || rs[a].dark {
				ok = false
			}
			if valid && !rs[a].dark {
				healthyCount++
				mask |= 1 << uint(a)
			}
			if !valid {
				continue
			}
			for c := 0; c < k; c++ {
				cands[a][c] = ests[c].RoundTrip
			}
		}
		sample := MultiSample{T: b.T}
		if len(b.States) > 0 {
			sample.Truth = make([]geom.Vec3, len(b.States))
			for i := range b.States {
				sample.Truth[i] = b.States[i].Center
			}
		}
		switch {
		case ok:
			if pos, err := locate.SolveK(d.locator, cands, prev, havePrev); err == nil {
				sample.Pos = pos
				sample.Valid = true
				copy(prev, pos)
				havePrev = true
			}
		case monitor && healthyCount >= 3:
			// Graceful degradation: the joint assignment search runs on
			// the healthy antennas' sub-array. A tracker that merely has
			// not acquired yet (invalid estimate) degrades the fix just
			// like a dark antenna — both starve the solve of a row.
			if sub, err := d.locator.Sub(mask); err == nil {
				maskedCands = maskedCands[:0]
				for a := 0; a < nRx; a++ {
					if mask&(1<<uint(a)) != 0 {
						maskedCands = append(maskedCands, cands[a])
					}
				}
				if pos, err := locate.SolveK(sub, maskedCands, prev, havePrev); err == nil {
					sample.Pos = pos
					sample.Valid = true
					sample.Degraded = true
					copy(prev, pos)
					havePrev = true
				}
			}
		}
		return emit(sample)
	}

	runStages(&d.shell, ctx, src, push, fuse)
}

// Run tracks one trajectory per subject simultaneously for the
// shortest trajectory's duration and returns all samples. It panics if
// the trajectory count does not match the subject count (a programming
// error, like a misconfigured tracker).
func (d *MultiDevice) Run(trajs ...motion.Trajectory) *MultiRunResult {
	src, err := d.simSource(trajs)
	if err != nil {
		panic(err)
	}
	res := &MultiRunResult{Samples: make([]MultiSample, 0, src.Frames())}
	d.stream(context.Background(), src, func(s MultiSample) bool {
		res.Samples = append(res.Samples, s)
		res.Frames++
		return true
	})
	return res
}

// Stream tracks one trajectory per subject and delivers k-person
// samples as they are produced, in frame order — the streaming
// counterpart of Run (bit-identical samples for a fixed seed). The
// channel closes when the shortest trajectory ends or ctx is
// cancelled.
func (d *MultiDevice) Stream(ctx context.Context, trajs ...motion.Trajectory) (<-chan MultiSample, error) {
	src, err := d.simSource(trajs)
	if err != nil {
		return nil, err
	}
	return deliver(ctx, src, d.stream), nil
}

// StreamFrom runs the k-person pipeline over an arbitrary frame source
// (a recorded multi-person trace, a hardware front end) instead of the
// built-in simulator.
func (d *MultiDevice) StreamFrom(ctx context.Context, src FrameSource) (<-chan MultiSample, error) {
	if err := d.checkSource(src); err != nil {
		return nil, err
	}
	return deliver(ctx, src, d.stream), nil
}
