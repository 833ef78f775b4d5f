package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"witrack/internal/dsp"
	"witrack/internal/fault"
	"witrack/internal/fmcw"
	"witrack/internal/locate"
	"witrack/internal/motion"
	"witrack/internal/rf"
	"witrack/internal/trace"
	"witrack/internal/track"
)

// PipelineConfig holds the run settings every device's staged pipeline
// honors. Device and MultiDevice embed it (through their shell), so the
// fields read as dev.Workers, dev.Pool and so on.
type PipelineConfig struct {
	// Workers is the number of per-antenna pipeline workers (stage 2).
	// 0 means one per receive antenna — the default and the fastest;
	// 1 degenerates to a fully serial processing stage (useful for
	// measuring the parallel speedup). Values above the antenna count
	// are capped.
	Workers int

	// Pool, when non-nil, is a shared processing-slot pool bounding how
	// much of this device's pipeline computes concurrently with every
	// other device on the same pool — the multi-session daemon's
	// fairness knob. nil (the default) leaves the run unpooled. Output
	// is bit-identical either way (see WorkerPool).
	Pool *WorkerPool

	// MonitorHealth turns on per-antenna health tracking even without an
	// installed injector: unhealthy frames (NaN/Inf bins, all-zero) are
	// quarantined before they reach the trackers, sustained damage takes
	// the antenna out of the solve, and fixes from a reduced antenna set
	// are flagged Degraded. Use it when streaming untrusted input (a
	// recovered corrupt trace, live hardware). InjectFaults implies it.
	MonitorHealth bool

	// FrameDeadline, when positive, arms a watchdog on every run: a
	// source that takes longer than this to produce a frame ends the run
	// with a descriptive RunError instead of wedging the pipeline
	// forever. Zero (the default) trusts the source.
	FrameDeadline time.Duration
}

// tracker is one receive antenna's tracking state: track.Tracker (one
// round trip per frame) or track.MultiTracker (k).
type tracker interface{ Reset() }

// shell is the machinery Device and MultiDevice share: the deployment,
// its simulator (synthesizer, propagator, per-subject body simulations
// and the RNG they draw from), the per-antenna trackers, the locator,
// the recycling ring, the pipeline settings and the fault/watchdog
// state. A device embeds one and adds only what differs between one
// target and k: the per-antenna tracking call and the fuse step.
type shell[T tracker] struct {
	PipelineConfig

	cfg      Config
	synth    *fmcw.Synthesizer
	prop     *rf.Propagator
	locator  *locate.Locator
	rng      *rand.Rand
	trackers []T        // one per receive antenna
	sims     []*bodySim // one per subject, in subject order
	// ring recycles FrameBatch buffers across the device's runs: one
	// trajectory set at a time, so successive runs reuse the frame
	// memory the previous run warmed up.
	ring *batchRing

	// faults, when non-nil, is the deterministic injector driving this
	// device's chaos runs; runErr latches why the last run ended early.
	faults *fault.Injector
	runErr error
}

// init validates cfg and builds the shared machinery, with one tracker
// per receive antenna from newTracker. It draws subject 0's body
// simulation from the device RNG: that is every device's first RNG use,
// and the golden digests pin the draw order that follows from it.
func (s *shell[T]) init(cfg Config, newTracker func(track.Config) T) error {
	if err := cfg.Radio.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := cfg.Array.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if cfg.Scene == nil {
		return fmt.Errorf("core: nil scene")
	}
	if cfg.Radio.ADCBits > 0 && !cfg.SlowSynth {
		return fmt.Errorf("core: ADCBits=%d requires SlowSynth (the fast path synthesizes spectra directly and never digitizes time-domain samples)", cfg.Radio.ADCBits)
	}
	loc, err := locate.New(cfg.Array)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	s.cfg = cfg
	s.synth = fmcw.NewSynthesizer(cfg.Radio)
	s.prop = rf.NewPropagator(cfg.Scene, cfg.Array, cfg.Radio)
	s.locator = loc
	s.rng = rand.New(rand.NewSource(cfg.Seed))
	s.ring = newBatchRing(ringCapacity)
	s.sims = []*bodySim{newBodySim(cfg.Subject, len(cfg.Array.Rx), s.rng)}
	tc := track.DefaultConfig(cfg.Radio.BinDistance(), cfg.Radio.FrameInterval(), s.synth.NoiseBinSigma())
	if cfg.TrackerOverride != nil {
		cfg.TrackerOverride(&tc)
	}
	for range cfg.Array.Rx {
		s.trackers = append(s.trackers, newTracker(tc))
	}
	return nil
}

// Config returns the device configuration.
func (s *shell[T]) Config() Config { return s.cfg }

// Reset clears tracker and body-simulation state so the device can run
// a fresh trajectory set.
func (s *shell[T]) Reset() {
	for _, tr := range s.trackers {
		tr.Reset()
	}
	for _, b := range s.sims {
		b.reset()
	}
}

// InjectFaults installs a deterministic fault injector on the device:
// subsequent runs drop and corrupt frames per the schedule, and the
// pipeline switches to health-monitored processing (quarantining
// unhealthy frames, coasting trackers through them, and solving on the
// healthy antenna subset). It validates the schedule against the
// device's array. Install before a run, not during one;
// InjectFaults(fault.Schedule{}) effectively clears injection while
// keeping monitoring on.
func (s *shell[T]) InjectFaults(sched fault.Schedule) error {
	if err := sched.Validate(len(s.cfg.Array.Rx)); err != nil {
		return err
	}
	s.faults = fault.New(sched)
	return nil
}

// FaultStats returns the injector's counters (zero when no injector is
// installed). Stable once a run's output channel has closed.
func (s *shell[T]) FaultStats() fault.Stats {
	if s.faults == nil {
		return fault.Stats{}
	}
	return s.faults.Stats()
}

// RunError reports why the most recent run ended early (currently: the
// frame-deadline watchdog), or nil for a clean end of stream. Valid
// once the run's output channel has closed; reset at the start of the
// next run.
func (s *shell[T]) RunError() error { return s.runErr }

// monitored reports whether runs take the health-checked processing
// path (an installed injector, or MonitorHealth).
func (s *shell[T]) monitored() bool { return s.faults != nil || s.MonitorHealth }

// TraceHeader returns the .wtrace header describing this device's
// deployment: the sweep parameters, antenna geometry, seed, and frame
// clock a replaying device needs to reproduce the recording conditions.
// Its records are processed range bins; the subject count is carried by
// the per-frame truth records.
func (s *shell[T]) TraceHeader() trace.Header {
	return trace.Header{
		Seed:     s.cfg.Seed,
		Interval: s.cfg.Radio.FrameInterval(),
		NumRx:    len(s.cfg.Array.Rx),
		Bins:     s.cfg.Radio.RangeBins(),
		Radio:    s.cfg.Radio,
		Array:    s.cfg.Array,
	}
}

// SweepTraceHeader is TraceHeader for a sweep-domain capture: the
// records hold raw time-domain sweeps (see trace.DomainSweeps), so a
// replay runs the full sweep average + window + RFFT path per frame instead
// of consuming pre-transformed bins. On a device with Radio.ADCBits the
// records are the quantized int16 ADC codes (trace.SampleInt16), the
// only sweeps such a device has, and the header stamps the quantizer:
// the resolution and the dequantization scale derived from the loudest
// antenna's static environment — exactly the scale the live pipeline
// quantizes with. Otherwise they are float64 samples packed pairwise
// into the complex record layout.
func (s *shell[T]) SweepTraceHeader() trace.Header {
	h := s.TraceHeader()
	h.Domain = trace.DomainSweeps
	h.SweepsPerFrame = s.cfg.Radio.SweepsPerFrame
	h.SamplesPerSweep = s.cfg.Radio.SamplesPerSweep()
	h.Bins = h.SweepsPerFrame * h.SamplesPerSweep / 2
	if bits := s.cfg.Radio.ADCBits; bits > 0 {
		h.Bins = 0
		h.Sample = trace.SampleInt16
		h.ADCBits = bits
		h.ADCScale = fmcw.NewQuantizer(bits,
			adcFullScale(s.prop, len(s.cfg.Array.Rx), s.cfg.Radio.NoiseFloorWatts)).Scale()
	}
	return h
}

// checkRecordHeader rejects a writer header this device cannot fill:
// sweeps from the fast path (which never materializes them), a sweep
// encoding other than the one the radio produces, or a frame shape or
// quantizer that differs from the device's own.
func (s *shell[T]) checkRecordHeader(h trace.Header) error {
	want := s.TraceHeader()
	if h.Domain == trace.DomainSweeps {
		if !s.cfg.SlowSynth {
			return fmt.Errorf("core: sweep recording requires SlowSynth (the fast path never materializes time-domain sweeps)")
		}
		want = s.SweepTraceHeader()
		if h.Sample != want.Sample {
			return fmt.Errorf("core: device with ADCBits=%d records %q sweeps, writer header says %q (open the writer with SweepTraceHeader)",
				s.cfg.Radio.ADCBits, want.Sample, h.Sample)
		}
	}
	if h.NumRx != want.NumRx || h.Bins != want.Bins || h.SweepsPerFrame != want.SweepsPerFrame ||
		h.SamplesPerSweep != want.SamplesPerSweep || h.ADCBits != want.ADCBits || h.ADCScale != want.ADCScale {
		return fmt.Errorf("core: writer header shape (%d antennas, %d bins, %d×%d sweeps, %d-bit ADC scale %g) differs from the device's (%d, %d, %d×%d, %d-bit scale %g)",
			h.NumRx, h.Bins, h.SweepsPerFrame, h.SamplesPerSweep, h.ADCBits, h.ADCScale,
			want.NumRx, want.Bins, want.SweepsPerFrame, want.SamplesPerSweep, want.ADCBits, want.ADCScale)
	}
	return nil
}

// RecordTo simulates one trajectory per subject and streams every frame,
// with all subjects' ground truth, into tw in the form tw's header
// names: processed range bins (TraceHeader), or raw sweeps
// (SweepTraceHeader: float64 samples, or int16 codes on an ADC device).
// It holds one frame in memory at a time and returns the number of
// frames written; the caller closes tw (the trailer makes the trace
// verifiable; an unclosed trace reads back as corrupt).
//
// The frames written are bit-for-bit what a live run's workers process
// — sweeps are captured before any transform, bins are materialized
// exactly as the workers would — so replaying the trace through
// StreamFrom on a fresh identically-configured device is bit-identical
// to running the trajectories directly. Recording consumes the device's
// simulation RNG exactly as a live run would: record on a fresh device,
// replay on another.
func (s *shell[T]) RecordTo(tw *trace.Writer, trajs ...motion.Trajectory) (int, error) {
	h := tw.Header()
	if err := s.checkRecordHeader(h); err != nil {
		return 0, err
	}
	src, err := s.simSource(trajs)
	if err != nil {
		return 0, err
	}
	frames := make([]dsp.ComplexFrame, len(s.cfg.Array.Rx))
	var scratch []antennaScratch
	if h.Domain != trace.DomainSweeps {
		scratch = make([]antennaScratch, len(s.cfg.Array.Rx))
	}
	n := 0
	for b := src.Next(); b != nil; b = src.Next() {
		switch {
		case h.Sample == trace.SampleInt16:
			err = tw.WriteFrameInt16Truths(b.codes16, b.States)
		case h.Domain == trace.DomainSweeps:
			for k := range frames {
				frames[k] = packSweeps(frames[k], b.sweeps[k])
			}
			err = tw.WriteFrameTruths(frames, b.States)
		default:
			for k := range frames {
				frames[k] = scratch[k].materialize(s.synth, s.prop, k, b)
			}
			err = tw.WriteFrameTruths(frames, b.States)
		}
		if err != nil {
			return n, err
		}
		n++
		src.Recycle(b)
	}
	return n, nil
}

// packSweeps packs one antenna's sweeps pairwise into dst's complex
// record layout: sample 2i in the real part, 2i+1 in the imaginary part,
// counting across sweep boundaries.
func packSweeps(dst dsp.ComplexFrame, sweeps [][]float64) dsp.ComplexFrame {
	dst = dst[:0]
	var re float64
	odd := false
	for _, sw := range sweeps {
		for _, v := range sw {
			if odd {
				dst = append(dst, complex(re, v))
			} else {
				re = v
			}
			odd = !odd
		}
	}
	return dst
}

// simSource wraps the device's simulator as the pipeline's stage-1
// source for the given trajectories, one per subject in subject order.
func (s *shell[T]) simSource(trajs []motion.Trajectory) (*simSource, error) {
	if len(trajs) != len(s.sims) {
		return nil, fmt.Errorf("core: %d trajectories for %d subjects", len(trajs), len(s.sims))
	}
	return newSimSource(s.synth, s.prop, s.rng, s.sims, trajs,
		s.cfg.Array.Tx, len(s.cfg.Array.Rx), s.cfg.Radio.FrameInterval(), s.cfg.SlowSynth, s.ring), nil
}

// checkSource rejects a frame source this device cannot process: one
// whose antenna count differs from the device's array or, for a
// recorded trace, whose records are shaped for a different radio — a
// bin count (bin traces) or sweep shape (sweep traces) other than what
// this device's own TraceHeader/SweepTraceHeader would write. Without
// the shape check a foreign trace either panics inside a pipeline
// worker or tracks garbage bins without reporting an error.
func (s *shell[T]) checkSource(src FrameSource) error {
	if got, want := src.NumRx(), len(s.cfg.Array.Rx); got != want {
		return fmt.Errorf("core: source has %d antennas, device array has %d", got, want)
	}
	ts, ok := src.(*TraceSource)
	if !ok {
		return nil
	}
	h, radio := ts.Header(), s.cfg.Radio
	if h.Domain == trace.DomainSweeps {
		if h.SweepsPerFrame != radio.SweepsPerFrame || h.SamplesPerSweep != radio.SamplesPerSweep() {
			return fmt.Errorf("core: sweep trace records %d sweeps × %d samples per frame, device radio takes %d × %d",
				h.SweepsPerFrame, h.SamplesPerSweep, radio.SweepsPerFrame, radio.SamplesPerSweep())
		}
	} else if h.Bins != radio.RangeBins() {
		return fmt.Errorf("core: trace records %d range bins, device radio has %d", h.Bins, radio.RangeBins())
	}
	return nil
}

// antennaScratch is one pipeline worker's per-antenna reusable buffers:
// the path list, the spectrum frame, and the time-domain sweep scratch
// (created on first use; it references the shared immutable FFT plan but
// its buffers belong to this antenna alone). Each antenna is processed
// by exactly one goroutine, so the buffers need no synchronization.
type antennaScratch struct {
	paths []fmcw.Path
	spec  dsp.ComplexFrame
	sweep *fmcw.SweepScratch

	// Fault-injection and health-monitoring state (used only on
	// monitored pipelines): faultBuf is the corruption scratch copy,
	// last/haveLast the stale-frame history for Stuck windows, badStreak
	// the consecutive-unhealthy count behind the dark escalation.
	faultBuf  dsp.ComplexFrame
	last      dsp.ComplexFrame
	haveLast  bool
	badStreak int
}

// materialize returns antenna k's complex frame for batch b: the eager
// frame if the source provided one, otherwise the deferred deterministic
// work — either the fast path's spectral synthesis (static paths, then
// each target's paths in order, then the pre-drawn noise) or the slow
// path's coherent average of raw sweeps, summed and then windowed and
// transformed once — reusing the worker's scratch. The operation order
// matches the fused serial synthesis exactly, so the result is
// bit-identical to what the serial loop produced.
func (w *antennaScratch) materialize(synth *fmcw.Synthesizer, prop *rf.Propagator, k int, b *FrameBatch) dsp.ComplexFrame {
	switch {
	case b.sweeps16 != nil:
		// Quantized sweeps take precedence over the float64 synthesis
		// scratch: the codes are what the modeled ADC output, and
		// summing them exactly before one dequantize keeps live,
		// recorded, and replayed runs bit-identical.
		w.spec = synth.ComplexFrameFromSweepsInt16Into(w.spec, b.sweeps16[k], b.scale16, w.sweepScratch(synth))
		return w.spec
	case b.sweeps != nil:
		w.spec = synth.ComplexFrameFromSweepsInto(w.spec, b.sweeps[k], w.sweepScratch(synth))
		return w.spec
	case b.synth != nil:
		j := &b.synth[k]
		w.paths = append(w.paths[:0], prop.StaticPaths(k)...)
		for _, r := range j.targets {
			w.paths = prop.AppendTargetPaths(w.paths, k, r.pt, r.rcs)
		}
		w.spec = synth.PathSpectrum(w.paths, w.spec)
		fmcw.AddNoise(w.spec, j.noise)
		return w.spec
	default:
		return b.Frames[k]
	}
}

// sweepScratch returns the worker's time-domain sweep scratch, built on
// first use.
func (w *antennaScratch) sweepScratch(synth *fmcw.Synthesizer) *fmcw.SweepScratch {
	if w.sweep == nil {
		w.sweep = synth.NewSweepScratch()
	}
	return w.sweep
}

// runStages drives the staged pipeline over src with the device's
// settings. Each antenna's frame is materialized and, on monitored
// pipelines, fault-injected and health-checked before track turns it
// into that antenna's result: healthy is false for a quarantined frame,
// which must reach neither the tracker's background state nor its
// measurement chain, and dark additionally asks fuse to leave the
// antenna out of the solve. Unmonitored pipelines run the exact
// historical code, bit for bit, with every frame healthy. fuse receives
// the per-antenna results in frame order (see runPipeline).
func runStages[T tracker, E any](s *shell[T], ctx context.Context, src FrameSource,
	track func(k int, frame dsp.ComplexFrame, healthy, dark bool) E,
	fuse func(b *FrameBatch, rs []E) bool) {
	scratch := make([]antennaScratch, len(s.cfg.Array.Rx))
	s.runErr = nil
	monitor := s.monitored()
	src, wd := guardSource(src, s.faults, s.FrameDeadline)
	proc := func(k int, b *FrameBatch) E {
		w := &scratch[k]
		frame := w.materialize(s.synth, s.prop, k, b)
		if !monitor {
			return track(k, frame, true, false)
		}
		if s.faults != nil {
			frame = w.injectFault(s.faults, b.Index, k, frame)
		}
		healthy, dark := w.health(frame)
		return track(k, frame, healthy, dark)
	}
	runPipeline(ctx, src, s.Workers, s.Pool, proc, fuse)
	if wd != nil {
		wd.shutdown()
		s.runErr = wd.err
	}
}

// deliver launches stream over src on its own goroutine and returns the
// channel the fused samples are delivered on, in frame order; it closes
// at end of stream or on cancellation.
func deliver[S any](ctx context.Context, src FrameSource,
	stream func(ctx context.Context, src FrameSource, emit func(S) bool)) <-chan S {
	out := make(chan S, pipelineDepth)
	go func() {
		defer close(out)
		stream(ctx, src, func(s S) bool {
			select {
			case out <- s:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return out
}
