package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"witrack/internal/core"
	"witrack/internal/fault"
	"witrack/internal/geom"
	"witrack/internal/motion"
	"witrack/internal/trace"
)

// Recordable reports whether one scenario × device cell can be captured
// to a .wtrace: a tracking cell with one trajectory per body (single-
// or multi-person). Protocol motions (fall-study, pointing-study) run
// many sub-trajectories and have no single frame stream to persist.
func (s *Spec) Recordable() error {
	for _, b := range s.Bodies {
		if k := b.Motion.Kind; protocol(k) {
			return fmt.Errorf("scenario %q: protocol motion %q has no single frame stream to record", s.Name, k)
		}
	}
	return nil
}

// RecordCell captures one scenario × device cell into w as a .wtrace:
// it compiles the cell, reproduces the runner's device setup (including
// background calibration, which consumes the simulation RNG exactly as
// a live run would), and streams every frame plus ground truth to disk
// — multi-person cells record on MultiDevice with one truth record per
// subject. Frames are pre-transformed range bins, except on a cell whose
// radio models an ADC (Radio.ADCBits > 0): its frames are the quantized
// int16 sweeps, the only form ReplayTrace accepts for such a cell. The
// trace header carries the scenario spec verbatim, so ReplayTrace can
// rebuild the identical deployment. Returns the number of frames
// captured and the encoded record-stream size before compression (the
// numerator of the trace's compression ratio; w receives the compressed
// bytes).
func RecordCell(sp *Spec, deviceIndex int, w io.Writer) (int, int64, error) {
	return recordCell(sp, deviceIndex, w, false)
}

// RecordCellSweeps is RecordCell for the sweep domain: it captures the
// cell's raw time-domain sweeps (trace.DomainSweeps) instead of
// pre-transformed range bins, so a replay re-runs the full window +
// RFFT + averaging path per frame. A cell with Radio.ADCBits set
// records the quantized int16 ADC codes (trace.SampleInt16, roughly 4x
// smaller compressed) instead of float64 samples. It requires a
// SlowSynth cell (the fast path never materializes sweeps).
func RecordCellSweeps(sp *Spec, deviceIndex int, w io.Writer) (int, int64, error) {
	return recordCell(sp, deviceIndex, w, true)
}

// recordCell is RecordCell and RecordCellSweeps, which differ only in
// the trace header they open.
func recordCell(sp *Spec, deviceIndex int, w io.Writer, sweeps bool) (int, int64, error) {
	if err := sp.Recordable(); err != nil {
		return 0, 0, err
	}
	c, err := Compile(sp, deviceIndex)
	if err != nil {
		return 0, 0, err
	}
	dev, _, err := newCellDevice(c)
	if err != nil {
		return 0, 0, err
	}
	h := dev.TraceHeader()
	if sweeps || c.Config.Radio.ADCBits > 0 {
		h = dev.SweepTraceHeader()
	}
	h.Name = sp.Name
	h.DeviceIndex = deviceIndex
	h.CalibrateFrames = c.CalibrateFrames
	if h.Scenario, err = json.Marshal(sp); err != nil {
		return 0, 0, fmt.Errorf("scenario %q: encoding provenance: %w", sp.Name, err)
	}
	tw, err := trace.NewWriter(w, h)
	if err != nil {
		return 0, 0, err
	}
	// A chaos cell's fault schedule never touches the capture: RecordTo
	// writes the clean stream, and ReplayTrace re-arms the schedule.
	n, err := dev.RecordTo(tw, c.Trajectories...)
	if err != nil {
		tw.Close()
		return n, tw.RawBytes(), err
	}
	return n, tw.RawBytes(), tw.Close()
}

// cellDevice is what recording and replaying a cell need of either
// device kind; every method comes from the shell the two share.
type cellDevice interface {
	TraceHeader() trace.Header
	SweepTraceHeader() trace.Header
	RecordTo(tw *trace.Writer, trajs ...motion.Trajectory) (int, error)
	InjectFaults(s fault.Schedule) error
	FaultStats() fault.Stats
	RunError() error
}

// newCellDevice builds a compiled cell's device — a MultiDevice for a
// k-person cell, otherwise a Device with the cell's background
// calibration installed — with its fault schedule armed, and returns it
// with its pipeline settings.
func newCellDevice(c *Compiled) (cellDevice, *core.PipelineConfig, error) {
	var dev cellDevice
	var pc *core.PipelineConfig
	if len(c.Trajectories) >= 2 {
		md, err := core.NewMultiDevice(c.Config, c.Subjects[1:]...)
		if err != nil {
			return nil, nil, err
		}
		dev, pc = md, &md.PipelineConfig
	} else {
		d, err := core.NewDevice(c.Config)
		if err != nil {
			return nil, nil, err
		}
		if c.CalibrateFrames > 0 {
			d.CalibrateBackground(c.CalibrateFrames)
		}
		dev, pc = d, &d.PipelineConfig
	}
	pc.Workers = c.Workers
	if c.Faults != nil {
		if err := dev.InjectFaults(*c.Faults); err != nil {
			return nil, nil, err
		}
	}
	return dev, pc, nil
}

// ReplayResult is one replayed trace's outcome — the snapshot unit the
// corpus regression gate diffs. Metrics come from the same scoring code
// as live cells, so for a fixed trace they are bit-reproducible.
type ReplayResult struct {
	// Trace is the trace's base file name (set by the CLIs; empty when
	// replaying a stream).
	Trace string `json:"trace,omitempty"`
	// Name/Device identify the scenario cell the trace captured.
	Name   string `json:"name"`
	Device int    `json:"device"`
	// Frames is the number of frames replayed.
	Frames int `json:"frames"`
	// Skips counts CRC-damaged records resynchronized past in recover
	// mode (see ReplayOptions.Recover); zero — and omitted — on a
	// pristine trace, so the corpus golden files are unchanged.
	Skips int `json:"skips,omitempty"`
	// RawBytes / TraceBytes / CompressionRatio describe the trace's
	// storage footprint: the encoded record-stream size before
	// compression, the on-disk (compressed) file size, and their
	// quotient. Set by the recording CLIs (witrack-record); informative
	// only — the corpus diff gate ignores them.
	RawBytes         int64   `json:"raw_bytes,omitempty"`
	TraceBytes       int64   `json:"trace_bytes,omitempty"`
	CompressionRatio float64 `json:"compression_ratio,omitempty"`
	// Metrics holds the cell's metric values.
	Metrics Metrics `json:"metrics"`
}

// ReplayReport is the multi-trace outcome — the CORPUS.json artifact.
type ReplayReport struct {
	Traces []ReplayResult `json:"traces"`
}

// ReplayOptions tunes trace replay.
type ReplayOptions struct {
	// Recover resynchronizes past CRC-damaged records instead of
	// aborting the replay; the skip count surfaces in
	// ReplayResult.Skips. Off by default — a corrupt golden trace
	// should fail the corpus gate loudly.
	Recover bool
	// Workers overrides the replaying device's per-antenna pipeline
	// worker count (0 keeps the compiled cell's setting). Output is
	// bit-identical at any worker count.
	Workers int
	// Pool, when non-nil, gates the replay's processing on a shared
	// worker pool, so many concurrent replays (a daemon's sessions)
	// time-slice a bounded slot count instead of oversubscribing the
	// host. See core.WorkerPool; output is unchanged.
	Pool *core.WorkerPool
	// Arena, when non-nil, recycles decoded frame buffers through a
	// shared cross-replay arena instead of a private per-replay ring.
	Arena *core.FrameArena
	// FrameDeadline arms the replaying device's source watchdog: a
	// stream that delivers no frame within the deadline (a stalled
	// network client) ends the replay with a descriptive error instead
	// of wedging it forever. Zero disables the watchdog.
	FrameDeadline time.Duration
	// Observe, when non-nil, is called with every fused sample in frame
	// order as the replay progresses — the hook live-stats surfaces (a
	// daemon's per-session fps/last-fix counters) are built on. It runs
	// on the replay's delivery path; keep it fast and non-blocking.
	Observe func(ReplayFix)
}

// ReplayFix is one fused output frame as seen by ReplayOptions.Observe:
// the subject-0 position plus the validity/degradation flags, enough to
// drive last-fix and health stats without retaining samples.
type ReplayFix struct {
	// T is the frame time in trace seconds.
	T float64
	// Pos is the tracked position (subject 0 on multi-person cells);
	// meaningful only when Valid.
	Pos geom.Vec3
	// Valid reports a real fix this frame.
	Valid bool
	// Degraded marks a fix solved on a reduced antenna subset.
	Degraded bool
}

// ReplayTrace streams a recorded cell back through the pipeline: it
// rebuilds the recording deployment from the trace's embedded scenario
// spec (same compile path, same seeds, same calibration), replays the
// frames via StreamFrom, and scores them exactly like a live cell. The
// result is bit-identical to what the live run scored — without paying
// synthesis cost. Chaos cells re-arm the spec's fault injector, so a
// clean-recorded trace replays the same damaged stream the live run
// tracked: fault decisions are functions of the recorded frame indexes.
func ReplayTrace(ctx context.Context, r io.Reader) (*ReplayResult, error) {
	return ReplayTraceOpts(ctx, r, ReplayOptions{})
}

// ReplayTraceOpts is ReplayTrace with explicit options.
func ReplayTraceOpts(ctx context.Context, r io.Reader, opts ReplayOptions) (*ReplayResult, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	tr.SetRecover(opts.Recover)
	h := tr.Header()
	if len(h.Scenario) == 0 {
		return nil, fmt.Errorf("scenario: trace %q has no scenario provenance; replay it with core.TraceSource directly", h.Name)
	}
	var sp Spec
	if err := json.Unmarshal(h.Scenario, &sp); err != nil {
		return nil, fmt.Errorf("scenario: decoding trace provenance: %w", err)
	}
	c, err := Compile(&sp, h.DeviceIndex)
	if err != nil {
		return nil, err
	}
	if len(c.Trajectories) < 1 {
		return nil, fmt.Errorf("scenario %q: trace provenance is not a tracking cell", sp.Name)
	}
	// Sanity-check the provenance against the explicit header fields: a
	// trace whose spec no longer compiles to the recording deployment
	// (e.g. after a compile-path change) must fail loudly, not replay
	// against the wrong radio.
	if got := c.Config.Seed; got != h.Seed {
		return nil, fmt.Errorf("scenario %q: provenance compiles to seed %d, trace recorded seed %d", sp.Name, got, h.Seed)
	}
	if got := len(c.Config.Array.Rx); got != h.NumRx {
		return nil, fmt.Errorf("scenario %q: provenance compiles to %d antennas, trace has %d", sp.Name, got, h.NumRx)
	}
	if got := c.Config.Radio; got != h.Radio {
		return nil, fmt.Errorf("scenario %q: provenance compiles to radio %+v, trace recorded %+v", sp.Name, got, h.Radio)
	}
	if got := c.Config.Radio.FrameInterval(); got != h.Interval {
		return nil, fmt.Errorf("scenario %q: provenance compiles to frame interval %g, trace recorded %g", sp.Name, got, h.Interval)
	}
	if got := c.CalibrateFrames; got != h.CalibrateFrames {
		return nil, fmt.Errorf("scenario %q: provenance compiles to %d calibration frames, trace recorded %d", sp.Name, got, h.CalibrateFrames)
	}
	if (h.Sample == trace.SampleInt16) != (c.Config.Radio.ADCBits > 0) {
		return nil, fmt.Errorf("scenario %q: provenance compiles to ADCBits=%d, trace sample encoding is %q", sp.Name, c.Config.Radio.ADCBits, h.Sample)
	}

	dev, pc, err := newCellDevice(c)
	if err != nil {
		return nil, err
	}
	// The replaying device must dequantize the trace with the scale it
	// would have recorded it with: a quantizer scale (derived from the
	// deployment's static environment) that differs from what the
	// provenance compiles to would mis-dequantize every frame. StreamFrom
	// refuses a record shape (bin count, sweep shape) the device would
	// not have written.
	want := dev.TraceHeader()
	if h.Domain == trace.DomainSweeps {
		want = dev.SweepTraceHeader()
	}
	if h.ADCScale != want.ADCScale {
		return nil, fmt.Errorf("scenario %q: provenance compiles to ADC scale %g, trace recorded %g", sp.Name, want.ADCScale, h.ADCScale)
	}
	if opts.Workers > 0 {
		pc.Workers = opts.Workers
	}
	pc.Pool = opts.Pool
	pc.FrameDeadline = opts.FrameDeadline

	src := core.NewTraceSourceArena(tr, opts.Arena)
	out := &cellOutcome{onFix: opts.Observe}
	switch d := dev.(type) {
	case *core.MultiDevice:
		ch, err := d.StreamFrom(ctx, src)
		if err != nil {
			return nil, err
		}
		scoreMultiStream(ch, out)
	case *core.Device:
		ch, err := d.StreamFrom(ctx, src)
		if err != nil {
			return nil, err
		}
		scoreTrackingStream(ch, c, out)
	}
	if c.Faults != nil {
		out.recordFaults(dev.FaultStats())
	}
	// Ordering matters: a watchdog stall (RunError) is the root cause
	// when a slow source also surfaces a late decode error.
	if err := dev.RunError(); err != nil {
		return nil, err
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &ReplayResult{
		Name:    sp.Name,
		Device:  h.DeviceIndex,
		Frames:  out.frames,
		Skips:   src.Skipped(),
		Metrics: out.res.Metrics,
	}, nil
}

// Corpus returns the compact scenario set behind the checked-in golden
// trace corpus: four canonical workloads (line-of-sight walk,
// through-wall walk, calibrated static presence, two-person tracking)
// on a reduced radio — MaxRange trimmed to the confined walking region
// and more sweeps averaged per frame — so the compressed traces stay
// under ~1.5 MB total while still exercising the full tracking
// pipeline, single- and multi-person. Refresh the corpus with
// cmd/witrack-record (see README "Record & replay").
// SweepCell returns the compact sweep-domain load cell: a SlowSynth
// line-of-sight walk on a radio shrunk for raw-sweep capture — the ADC
// rate cut to 128 kHz so a 2.5 ms sweep is 320 samples (FFT size 512)
// while the 11 m range keeps every beat far inside Nyquist. Recorded
// with RecordCellSweeps and replayed by concurrent sessions, every
// frame runs the full RFFT path; witrack-load -sweeps generates this
// trace in memory rather than checking megabytes of noise into the
// corpus.
func SweepCell() Spec {
	radio := RadioSpec{MaxRange: 11, SweepsPerFrame: 8, SampleRate: 128e3, SweepTime: 2.5e-3}
	near := &RegionSpec{XMin: -1.5, XMax: 1.5, YMin: 3, YMax: 4.6}
	return *New("sweep-walk", "compact sweep-domain walk for the batching load harness").
		Seeded(751).
		Body(BodySpec{Motion: MotionSpec{Kind: MotionWalk, Duration: 2.0, Seed: 757, Region: near}}).
		Device(DeviceSpec{Separation: 1.0, SlowSynth: true, Radio: radio})
}

// SweepCellInt16 is SweepCell behind a modeled 14-bit ADC: the same
// walk, radio, and seeds, but the sweeps are digitized at the source
// and recorded as delta-coded int16 codes (trace.SampleInt16), so a
// replay exercises the int16 frame body (exact code sum, one
// dequantize) and the ~4x cheaper quantized ingest path end to end.
func SweepCellInt16() Spec {
	sp := SweepCell()
	sp.Name = "sweep-walk-int16"
	sp.Description = "quantized int16 sweep-domain walk for the batching load harness"
	sp.Devices[0].Radio.ADCBits = 14
	return sp
}

func Corpus() []Spec {
	// The corpus radio: frames cover 11 m of round-trip range (the
	// confined region's round trips top out near 10 m) at 16 frames/s.
	radio := RadioSpec{MaxRange: 11, SweepsPerFrame: 25}
	// Keep walkers close to the array so their round trips fit MaxRange.
	near := &RegionSpec{XMin: -1.5, XMax: 1.5, YMin: 3, YMax: 4.6}
	return []Spec{
		*New("corpus-walk", "compact line-of-sight walk for the replay corpus").
			Seeded(701).
			Body(BodySpec{Motion: MotionSpec{Kind: MotionWalk, Duration: 4.5, Seed: 703, Region: near}}).
			Device(DeviceSpec{Separation: 1.0, Radio: radio}),

		*New("corpus-wall", "compact through-wall walk for the replay corpus").
			Seeded(709).ThroughWall().
			Body(BodySpec{Motion: MotionSpec{Kind: MotionWalk, Duration: 4.5, Seed: 711, Region: near}}).
			Device(DeviceSpec{Separation: 1.0, Radio: radio}),

		*New("corpus-static", "compact calibrated static presence for the replay corpus").
			Seeded(719).ThroughWall().
			Static(0.5, 3.8, 3.5).
			Device(DeviceSpec{Separation: 1.0, CalibrateFrames: 40, Radio: radio}),

		// Two concurrent walkers in separate round-trip bands (gap kept
		// above the tracker's merge separation), recorded on MultiDevice
		// with both truth records per frame — the multi-person replay
		// seam. The motion seeds are chosen so both walkers move from
		// the start: at the corpus's 16 frames/s an initial pause
		// starves the trackers of moving frames and the cell never
		// acquires a joint fix (then the gate would pin no positions).
		*New("corpus-duo", "compact two-person cell for the replay corpus").
			Seeded(727).EmptyRoom().
			Body(BodySpec{Motion: MotionSpec{Kind: MotionWalk, Duration: 4.5, Seed: 741,
				Region: &RegionSpec{XMin: -1.2, XMax: 1.2, YMin: 3, YMax: 3.8}}}).
			Body(BodySpec{
				Subject: SubjectSpec{PanelSize: 11, PanelSeed: 309, PanelIndex: 3},
				Motion: MotionSpec{Kind: MotionWalk, Duration: 4.5, Seed: 743,
					Region: &RegionSpec{XMin: -0.8, XMax: 0.8, YMin: 4.8, YMax: 5.2}}}).
			Device(DeviceSpec{Separation: 1.0, Radio: radio}),

		// A quantized sweep-domain cell: the walk is captured as
		// delta-coded 14-bit ADC codes on the compact sweep radio (see
		// SweepCell), so every corpus replay also exercises the int16
		// decode → code sum → dequantize → RFFT ingest path. Kept short
		// — raw sweeps are bulky even quantized.
		*New("corpus-int16", "quantized int16 sweep-domain walk for the replay corpus").
			Seeded(761).
			Body(BodySpec{Motion: MotionSpec{Kind: MotionWalk, Duration: 0.8, Seed: 769, Region: near}}).
			Device(DeviceSpec{Separation: 1.0, SlowSynth: true,
				Radio: RadioSpec{MaxRange: 11, SweepsPerFrame: 8, SampleRate: 128e3, SweepTime: 2.5e-3, ADCBits: 14}}),
	}
}
