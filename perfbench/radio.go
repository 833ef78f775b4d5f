package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"witrack/internal/core"
	"witrack/internal/dsp"
	"witrack/internal/fmcw"
	"witrack/internal/locate"
	"witrack/internal/motion"
	"witrack/internal/trace"
	"witrack/internal/track"
)

// radioWalkSeconds is the recorded walk's length. Recording runs the
// time-domain synthesizer (about 10 ms of CPU a frame), so it dominates
// set-up; 3 s gives 241 frames, enough for the trackers to acquire.
const radioWalkSeconds = 3.0

// pacedInterval is the radio's real frame interval: 80 frames/s.
const pacedInterval = 12500 * time.Microsecond

// radioCycles is how many paced and flat-out stretches alternate in a
// run, so both phases sample the whole run's host conditions.
const radioCycles = 6

// radioConfig is the default deployment (3-Rx T array, 1 MHz ADC, five
// 2.5 ms sweeps per frame) behind a 14-bit ADC.
func radioConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = 1 + seed
	cfg.SlowSynth = true
	cfg.Radio.ADCBits = 14
	return cfg
}

// radioWalk is the seeded walk the trace records. It never pauses and
// stays in walkBand: pauses and range swings changed the trace's entropy,
// and with it the decoder's cost, by 2.5x from seed to seed.
func radioWalk(cfg core.Config, seed int64) motion.Trajectory {
	wc := motion.DefaultWalkConfig(walkBand, cfg.Subject.CenterHeight(), radioWalkSeconds, 100+seed)
	wc.PauseProb = 0
	return motion.NewRandomWalk(wc)
}

// walkBand is a band 3 m wide and 1 m deep, 3.5 m in front of the array.
var walkBand = motion.Region{XMin: -1.5, XMax: 1.5, YMin: 3.5, YMax: 4.5}

// radioRig is the radio-int16 workload after set-up: the recorded int16
// sweep trace, the reference fixes of one replay, and the device under
// test, warmed up by one checked replay.
type radioRig struct {
	cfg      core.Config
	data     []byte
	ref      []core.Sample
	recordUS float64 // RecordSweepsInt16To, µs per frame
	dev      *core.Device
	base     uint64 // live heap before the device under test was built
}

func setupRadio(o *options) (*radioRig, error) {
	cfg := radioConfig(o.seed)
	rec, err := core.NewDevice(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, rec.SweepTraceHeaderInt16())
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	n, err := rec.RecordSweepsInt16To(tw, radioWalk(cfg, o.seed))
	recordUS := float64(time.Since(t0).Microseconds()) / float64(max(n, 1))
	if err != nil {
		return nil, fmt.Errorf("recording: %w", err)
	}
	if err := tw.Close(); err != nil {
		return nil, fmt.Errorf("recording: %w", err)
	}
	rig := &radioRig{cfg: cfg, data: buf.Bytes(), recordUS: recordUS}

	refDev, err := core.NewDevice(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := replayOnce(context.Background(), refDev, rig.data, nil, func(_ int, s core.Sample) {
		rig.ref = append(rig.ref, s)
	}); err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	if len(rig.ref) != n {
		return nil, fmt.Errorf("reference replay gave %d fixes for %d recorded frames", len(rig.ref), n)
	}

	rig.base = heapBaseline()
	if rig.dev, err = core.NewDevice(cfg); err != nil {
		return nil, err
	}
	var c counter
	rig.replayChecked(context.Background(), nil, &c, nil)
	if c.failed > 0 {
		return nil, fmt.Errorf("warm-up replay: %v", c.reasons)
	}
	return rig, nil
}

// replayOnce streams one pass of the trace through dev (reset first, so
// every pass starts from the same tracker state) and hands each fix to
// onFix. It returns the fixes delivered and the error the trace source or
// the run latched, if any.
func replayOnce(ctx context.Context, dev *core.Device, data []byte,
	wrap func(core.FrameSource) core.FrameSource, onFix func(j int, s core.Sample)) (int, error) {
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	src := core.NewTraceSource(r)
	var fs core.FrameSource = src
	if wrap != nil {
		fs = wrap(src)
	}
	dev.Reset()
	ch, err := dev.StreamFrom(ctx, fs)
	if err != nil {
		return 0, err
	}
	n := 0
	for s := range ch {
		onFix(n, s)
		n++
	}
	if err := src.Err(); err != nil {
		return n, err
	}
	return n, dev.RunError()
}

// replayChecked runs one pass and checks every fix against the
// reference at its index; onFix (optional) sees each fix with its
// arrival time. A pass cut short by pace (the paced phase's end) is
// checked up to where it stopped; any other short pass counts its
// missing fixes as failed.
func (r *radioRig) replayChecked(ctx context.Context, p *pacer, c *counter, onFix func(j int, at time.Time)) int {
	var wrap func(core.FrameSource) core.FrameSource
	want := len(r.ref)
	if p != nil {
		want = min(want, p.stop-p.next)
		wrap = func(s core.FrameSource) core.FrameSource { p.FrameSource = s; return p }
	}
	bad := 0
	n, err := replayOnce(ctx, r.dev, r.data, wrap, func(j int, s core.Sample) {
		at := time.Now()
		if j >= len(r.ref) || !sameSample(s, r.ref[j]) {
			bad++
		}
		if onFix != nil {
			onFix(j, at)
		}
	})
	c.ok(n)
	if bad > 0 {
		c.mark(bad, "%d of %d fixes differ from the reference replay", bad, n)
	}
	if err != nil {
		c.fail(max(want-n, 1), "replay: %v", err)
	} else if n != want {
		c.fail(abs(want-n), "replay gave %d fixes, want %d", n, want)
	}
	return n
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// sameSample compares two fixes bit for bit.
func sameSample(a, b core.Sample) bool {
	f := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return f(a.T, b.T) && f(a.Pos.X, b.Pos.X) && f(a.Pos.Y, b.Pos.Y) && f(a.Pos.Z, b.Pos.Z) &&
		f(a.Truth.X, b.Truth.X) && f(a.Truth.Y, b.Truth.Y) && f(a.Truth.Z, b.Truth.Z) &&
		a.Valid == b.Valid && a.Moving == b.Moving && a.Degraded == b.Degraded && a.TruthMoving == b.TruthMoving
}

// pacer is the open-loop generator: it hands the pipeline frame i of the
// phase no earlier than t0 + i × 12.5 ms, whatever the pipeline's state,
// and records how late it ran.
type pacer struct {
	core.FrameSource
	t0         time.Time
	next, stop int
	late       []float64 // ms past each frame's due time at hand-off
}

// spinAhead is how early the generator stops sleeping and starts
// polling the clock: timer wake-ups on a virtual machine run up to a few
// milliseconds late, and that lateness would count as fix latency.
const spinAhead = 2 * time.Millisecond

func (p *pacer) Next() *core.FrameBatch {
	if p.next >= p.stop {
		return nil
	}
	due := p.t0.Add(time.Duration(p.next) * pacedInterval)
	if d := time.Until(due) - spinAhead; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
	}
	p.late = append(p.late, float64(time.Since(due))/1e6)
	b := p.FrameSource.Next()
	if b != nil {
		p.next++
	}
	return b
}

// pacedRun is one stretch of the paced phase: when frame 0 was due, and
// per frame, in due order, its fix latency and the generator's lateness.
type pacedRun struct {
	t0        time.Time
	lat, late []float64
}

func (p *pacedRun) due(i int) time.Time { return p.t0.Add(time.Duration(i) * pacedInterval) }

// pacedPhase replays the trace, looped, at the radio's 80 frames/s for
// the given time.
func (r *radioRig) pacedPhase(ctx context.Context, seconds float64, c *counter) pacedRun {
	frames := int(seconds / pacedInterval.Seconds())
	p := &pacer{t0: time.Now().Add(pacedInterval), stop: frames}
	run := pacedRun{t0: p.t0}
	for p.next < p.stop {
		first := p.next
		n := r.replayChecked(ctx, p, c, func(j int, at time.Time) {
			run.lat = append(run.lat, float64(at.Sub(run.due(first+j)))/1e6)
		})
		if n == 0 {
			break
		}
	}
	run.late = p.late
	return run
}

// flatPass is one flat-out replay of the trace.
type flatPass struct {
	start, end time.Time
	frames     int
}

// flatPhase replays the trace, looped, as fast as the pipeline takes
// frames, for at least the given time.
func (r *radioRig) flatPhase(ctx context.Context, seconds float64, c *counter) []flatPass {
	var passes []flatPass
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(end) {
		t0 := time.Now()
		n := r.replayChecked(ctx, nil, c, nil)
		if n == 0 {
			break
		}
		passes = append(passes, flatPass{t0, time.Now(), n})
	}
	return passes
}

// windowFrames is the paced phase's steal window: half a second of frames.
const windowFrames = 40

// pacedLatency returns every paced fix's latency in available time:
// each scaled by the share of its half-second window the machine was ours.
func pacedLatency(runs []pacedRun) []float64 {
	var lat []float64
	for i := range runs {
		p := &runs[i]
		for k := 0; k < len(p.lat); k += windowFrames {
			end := min(k+windowFrames, len(p.lat))
			av := steal.avail(p.due(k), p.due(end))
			for _, l := range p.lat[k:end] {
				lat = append(lat, l*av)
			}
		}
	}
	return lat
}

// flatThroughput is fixes per second of available time over the
// flat-out passes.
func flatThroughput(passes []flatPass) float64 {
	frames, t := 0, 0.0
	for _, p := range passes {
		frames += p.frames
		t += p.end.Sub(p.start).Seconds() * steal.avail(p.start, p.end)
	}
	return float64(frames) / t
}

func runRadio(o *options, rig *radioRig) (map[string]float64, *counter) {
	ctx := context.Background()
	c := &counter{}
	m := map[string]float64{}
	if !o.trace {
		// The paced and flat-out phases alternate so both sample the
		// whole run.
		pm := startPhase(rig.base)
		var paced []pacedRun
		var passes []flatPass
		frames := 0
		for i := 0; i < radioCycles; i++ {
			p := rig.pacedPhase(ctx, 0.4*o.seconds/radioCycles, c)
			paced = append(paced, p)
			frames += len(p.lat)
			for _, f := range rig.flatPhase(ctx, 0.6*o.seconds/radioCycles, c) {
				passes = append(passes, f)
				frames += f.frames
			}
		}
		tot := pm.stop()
		m["latency_p50_ms"] = quantile(pacedLatency(paced), 0.5)
		m["throughput_fps"] = flatThroughput(passes)
		m["allocs_per_frame"] = float64(tot.allocs) / float64(frames)
		m["peak_heap_mb"] = tot.peakMB
		return m, c
	}

	paced := rig.pacedPhase(ctx, 0.25*o.seconds, c)
	lat := pacedLatency([]pacedRun{paced})
	m["latency_p90_ms"] = quantile(lat, 0.9)
	m["latency_p99_ms"] = quantile(lat, 0.99)
	m["gen.late_p50_ms"] = quantile(paced.late, 0.5)
	m["gen.late_p99_ms"] = quantile(paced.late, 0.99)

	pm := startPhase(rig.base)
	frames := 0
	for _, f := range rig.flatPhase(ctx, 0.25*o.seconds, c) {
		frames += f.frames
	}
	tot := pm.stop()
	cpuUS := tot.cpu / float64(frames) * 1e6
	pipeAllocs := float64(tot.allocs) / float64(frames)
	m["core.cpu_us_per_frame"] = cpuUS

	// The serial layer replay: the same calls the pipeline makes, one
	// frame at a time, each inside a span. It runs as many passes traced
	// as fit in a quarter of the run, then as many untraced; the gap is
	// the tracing overhead.
	sr := newSerialReplayer(rig.cfg)
	tr := newTracer(true)
	passes := 0
	t0 := time.Now()
	for end := t0.Add(time.Duration(0.25 * o.seconds * float64(time.Second))); passes == 0 || time.Now().Before(end); passes++ {
		if !sr.replayChecked(rig, tr, int64(passes), c) {
			break
		}
	}
	traced := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < passes; i++ {
		sr.replayChecked(rig, nil, 0, c)
	}
	untraced := time.Since(t0)
	o.spans.add(tr)
	m["bench.trace_overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()

	st := selfTimes(tr.spans)
	n := float64(passes * len(rig.ref))
	layer := func(name string) (us, allocs float64) {
		s := st[name]
		if s == nil {
			return 0, 0
		}
		return float64(s.self.Microseconds()) / n, float64(s.allocs) / n
	}
	sum, sumAllocs := 0.0, 0.0
	for _, name := range []string{"trace.decode", "dsp.materialize", "track.push", "locate.solve"} {
		us, allocs := layer(name)
		m[name+"_us_per_frame"] = us
		m[name+"_allocs_per_frame"] = allocs
		sum += us
		sumAllocs += allocs
	}
	m["core.overhead_us_per_frame"] = cpuUS - sum
	if pipeAllocs > 0 {
		m["core.allocs_attributed_pct"] = 100 * sumAllocs / pipeAllocs
	}
	m["core.record_us_per_frame"] = rig.recordUS
	if us, err := encodeUS(rig.data); err != nil {
		c.fail(1, "re-encoding the trace: %v", err)
	} else {
		m["trace.encode_us_per_frame"] = us
		c.ok(1)
	}
	synthTimes(m)
	return m, c
}

// serialReplayer replays an int16 sweep trace one frame at a time
// through the same public calls the device pipeline makes: decode, then
// per antenna the fused dequantize + window + RFFT + sweep average and
// the tracker push, then the solve.
type serialReplayer struct {
	cfg      core.Config
	synth    *fmcw.Synthesizer
	scratch  []*fmcw.SweepScratch
	spec     []dsp.ComplexFrame
	trackers []*track.Tracker
	loc      *locate.Locator
	codes    [][]int16
	truths   []motion.BodyState
	views    [][][]int16
	ests     []track.Estimate
}

func newSerialReplayer(cfg core.Config) *serialReplayer {
	nRx := len(cfg.Array.Rx)
	synth := fmcw.NewSynthesizer(cfg.Radio)
	loc, err := locate.New(cfg.Array)
	if err != nil {
		panic(err) // the array already built a device
	}
	r := &serialReplayer{cfg: cfg, synth: synth, loc: loc,
		scratch: make([]*fmcw.SweepScratch, nRx), spec: make([]dsp.ComplexFrame, nRx),
		views: make([][][]int16, nRx), ests: make([]track.Estimate, nRx)}
	tc := track.DefaultConfig(cfg.Radio.BinDistance(), cfg.Radio.FrameInterval(), synth.NoiseBinSigma())
	for k := 0; k < nRx; k++ {
		r.scratch[k] = synth.NewSweepScratchPrecision(cfg.Precision)
		r.trackers = append(r.trackers, track.New(tc))
	}
	return r
}

// replayChecked replays the rig's trace once, checking each fix against
// the pipeline's reference; it reports whether the pass was clean.
func (r *serialReplayer) replayChecked(rig *radioRig, tr *tracer, pass int64, c *counter) bool {
	bad, n := 0, 0
	err := r.replay(rig.data, tr, pass, func(j int, s core.Sample) {
		n++
		if j >= len(rig.ref) || !sameSample(s, rig.ref[j]) {
			bad++
		}
	})
	c.ok(n)
	switch {
	case err != nil:
		c.fail(max(len(rig.ref)-n, 1), "serial layer replay: %v", err)
	case bad > 0:
		c.mark(bad, "serial layer replay: %d of %d fixes differ from the pipeline", bad, n)
	case n != len(rig.ref):
		c.fail(abs(len(rig.ref)-n), "serial layer replay gave %d fixes, want %d", n, len(rig.ref))
	default:
		return true
	}
	return false
}

func (r *serialReplayer) replay(data []byte, tr *tracer, pass int64, onFix func(j int, s core.Sample)) error {
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	h := rd.Header()
	for _, t := range r.trackers {
		t.Reset()
	}
	for j := 0; ; j++ {
		req := pass<<32 | int64(j)
		frame := tr.begin("core.frame", -1, req)
		sp := tr.begin("trace.decode", frame, req)
		codes, truths, err := rd.ReadFrameInt16Into(r.codes, r.truths[:0])
		tr.end(sp)
		if errors.Is(err, io.EOF) {
			tr.end(frame)
			return nil
		}
		if err != nil {
			tr.end(frame)
			return err
		}
		r.codes, r.truths = codes, truths
		moving := 0
		for k, cd := range codes {
			ns := h.SamplesPerSweep
			if len(cd) != h.SweepsPerFrame*ns {
				tr.end(frame)
				return fmt.Errorf("antenna %d has %d codes", k, len(cd))
			}
			v := r.views[k][:0]
			for s := 0; s < h.SweepsPerFrame; s++ {
				v = append(v, cd[s*ns:(s+1)*ns])
			}
			r.views[k] = v
			sp = tr.begin("dsp.materialize", frame, req)
			r.spec[k] = r.synth.ComplexFrameFromSweepsInt16Into(r.spec[k], v, h.ADCScale, r.scratch[k])
			tr.end(sp)
			sp = tr.begin("track.push", frame, req)
			r.ests[k] = r.trackers[k].Push(r.spec[k])
			tr.end(sp)
			if r.ests[k].Moving {
				moving++
			}
		}
		idx := rd.FrameIndex()
		s := core.Sample{T: float64(idx) * h.Interval}
		if len(truths) > 0 {
			s.Truth = truths[0].Center
			s.TruthMoving = truths[0].Moving
		}
		sp = tr.begin("locate.solve", frame, req)
		pos, err := r.loc.Solve(r.ests)
		tr.end(sp)
		if err == nil {
			s.Pos, s.Valid, s.Moving = pos, true, moving >= 2
		}
		tr.end(frame)
		onFix(j, s)
	}
}

// encodeUS decodes the trace's codes, re-encodes them with
// trace.Writer.WriteFrameInt16, checks the result is byte-identical to
// the recording, and returns the median µs per frame over three passes.
func encodeUS(data []byte) (float64, error) {
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	h := rd.Header()
	var frames [][][]int16
	var truths []motion.BodyState
	for {
		codes, ts, err := rd.ReadFrameInt16Into(nil, nil)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
		if len(ts) != 1 {
			return 0, fmt.Errorf("frame %d has %d truth records", len(frames), len(ts))
		}
		frames = append(frames, codes)
		truths = append(truths, ts[0])
	}
	var out bytes.Buffer
	per := make([]float64, 3)
	for i := range per {
		out.Reset()
		tw, err := trace.NewWriter(&out, h)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for f := range frames {
			if err := tw.WriteFrameInt16(frames[f], &truths[f]); err != nil {
				return 0, err
			}
		}
		per[i] = float64(time.Since(t0).Microseconds()) / float64(len(frames))
		if err := tw.Close(); err != nil {
			return 0, err
		}
	}
	if !bytes.Equal(out.Bytes(), data) {
		return 0, fmt.Errorf("re-encoded trace differs from the recording (%d vs %d bytes)", out.Len(), len(data))
	}
	return median(per), nil
}
