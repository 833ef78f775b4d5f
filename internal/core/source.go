package core

import (
	"math"
	"math/rand"

	"witrack/internal/dsp"
	"witrack/internal/fmcw"
	"witrack/internal/geom"
	"witrack/internal/motion"
	"witrack/internal/rf"
)

// FrameBatch carries one frame interval's worth of per-antenna data
// through the staged pipeline (source -> per-antenna workers -> fusion).
type FrameBatch struct {
	// Index is the frame number, starting at 0.
	Index int
	// T is the frame time in seconds: Index * FrameInterval (an integer
	// frame clock — accumulating floats drifts over long runs).
	T float64
	// States holds the ground-truth body state of each tracked subject
	// at T (one entry for Device, k for MultiDevice; empty when the
	// source has no ground truth, e.g. recorded hardware traces).
	States []motion.BodyState
	// Frames holds one complex FFT frame per receive antenna. Sources
	// with materialized data (recorded traces, hardware DMA buffers)
	// fill these eagerly; the simulator leaves them nil and fills the
	// deferred synthesis jobs instead, so the per-antenna workers do the
	// deterministic synthesis math in parallel.
	Frames []dsp.ComplexFrame

	// synth, when non-nil, holds one deferred synthesis job per antenna:
	// the target scatterers plus the pre-drawn receiver noise. Only the
	// RNG-consuming work (body wander, noise draws) happens in the
	// source; everything else is deterministic and runs in the workers
	// without perturbing a single output bit.
	synth []synthJob

	// sweeps, when non-nil, is the slow path's deferred job: raw
	// time-domain samples, indexed [antenna][sweep]. Sweep generation
	// consumes the RNG (tones plus per-sample noise interleave) so it
	// stays in the source; the windowing, real-input FFT, and coherent
	// averaging are deterministic and run in the per-antenna workers
	// against their own plans and scratch.
	sweeps [][][]float64
	// samples backs a replayed float64 sweep batch's sweeps: per
	// antenna, the frame's samples in sweep order, which the per-sweep
	// views slice.
	samples [][]float64

	// sweeps16, when non-nil, is the quantized form of the same deferred
	// job: ADC codes indexed [antenna][sweep], each sweep a view into the
	// per-antenna codes16 backing buffer, dequantizing as
	// float64(code) * scale16. Workers sum each antenna's codes in
	// int32, dequantize the sum once and run one FFT
	// (Synthesizer.ComplexFrameFromSweepsInt16Into). When both sweeps16
	// and sweeps are set (a quantizing simulator keeps its float64
	// synthesis scratch on the batch for ring reuse) sweeps16 wins —
	// the quantized codes are the signal the modeled receiver actually
	// digitized.
	sweeps16 [][][]int16
	codes16  [][]int16
	scale16  float64

	// pooled marks a batch currently resting in a batchRing; the ring
	// uses it to panic on double puts instead of aliasing two in-flight
	// frames onto one buffer.
	pooled bool
}

// synthJob is the deferred deterministic synthesis work for one antenna.
type synthJob struct {
	// targets are the moving scatterers visible to this antenna, in
	// subject order (A's reflectors, then B's).
	targets []reflector
	// noise is the frame's receiver noise, drawn in the source in strict
	// antenna order to preserve the serial RNG sequence.
	noise dsp.ComplexFrame
}

// FrameSource is stage 1 of the pipeline: it produces per-antenna
// complex-frame batches in frame order. Implementations are driven from
// a single goroutine; Recycle may be called from a different goroutine
// (the fusion stage) once a batch's processing has fully completed.
type FrameSource interface {
	// NumRx returns the number of receive antennas per batch.
	NumRx() int
	// Next returns the next frame batch, or nil at end of stream.
	Next() *FrameBatch
	// Recycle hands back a fully processed batch; sources may reuse its
	// buffers for a future Next. A no-op implementation is valid.
	Recycle(*FrameBatch)
}

// frameClockEps absorbs the rounding of duration/interval so a duration
// that is an exact multiple of the frame interval keeps its final frame.
const frameClockEps = 1e-9

// frameCount returns how many frames cover [0, duration] at the given
// interval: the integer frame clock replacing the old accumulating
// float loop (for t := 0.0; t <= dur; t += interval), which drifted on
// long runs and could drop the final frame.
func frameCount(duration, interval float64) int {
	if duration < 0 {
		return 0
	}
	return int(math.Floor(duration/interval+frameClockEps)) + 1
}

// simSource synthesizes frame batches from simulated trajectories: the
// current Device/MultiDevice simulator expressed as a FrameSource. Per
// frame it advances the subjects' reflection processes and pre-draws the
// receiver noise (the ordered RNG work), deferring the deterministic
// path-spectrum math to the per-antenna workers. In SlowSynth mode the
// full time-domain synthesis runs here instead — its RNG use is
// interleaved per sample and cannot be split.
type simSource struct {
	synth    *fmcw.Synthesizer
	prop     *rf.Propagator
	rng      *rand.Rand
	sims     []*bodySim
	trajs    []motion.Trajectory
	tx       geom.Vec3
	nRx      int
	interval float64
	frames   int
	slow     bool

	i     int
	refl  [][][]reflector // per subject, per antenna; source-local scratch
	paths []fmcw.Path     // slow-path scratch
	ring  *batchRing      // recycled *FrameBatch frame buffers
	// quant, when non-nil, is the modeled ADC (Radio.ADCBits > 0 with
	// SlowSynth): every synthesized sweep is quantized in the source, so
	// the workers — live, recorded, and replayed alike — process exactly
	// the same int16 codes and the three paths stay bit-identical by
	// construction.
	quant *fmcw.Quantizer
}

// adcFullScale derives the quantizer full scale a deployment records
// and replays with: the worst antenna's static environment paths
// (deterministic, precomputed) fed through fmcw.ADCFullScale. Target
// reflections and noise excursions ride inside its headroom terms.
func adcFullScale(prop *rf.Propagator, nRx int, noiseFloorWatts float64) float64 {
	fs := 0.0
	for k := 0; k < nRx; k++ {
		if v := fmcw.ADCFullScale(prop.StaticPaths(k), noiseFloorWatts); v > fs {
			fs = v
		}
	}
	return fs
}

// newSimSource builds a simulator source over the given subjects and
// trajectories (parallel slices). The run length is the shortest
// trajectory's duration. ring is the recycling ring the batches live
// in; a device passes its own so frame buffers warmed by one run are
// reused by the next (a source never outlives its run).
func newSimSource(synth *fmcw.Synthesizer, prop *rf.Propagator, rng *rand.Rand,
	sims []*bodySim, trajs []motion.Trajectory, tx geom.Vec3, nRx int,
	interval float64, slow bool, ring *batchRing) *simSource {
	dur := math.Inf(1)
	for _, tr := range trajs {
		if d := tr.Duration(); d < dur {
			dur = d
		}
	}
	s := &simSource{
		synth:    synth,
		prop:     prop,
		rng:      rng,
		sims:     sims,
		trajs:    trajs,
		tx:       tx,
		nRx:      nRx,
		interval: interval,
		frames:   frameCount(dur, interval),
		slow:     slow,
		refl:     make([][][]reflector, len(sims)),
		ring:     ring,
	}
	if bits := synth.Config().ADCBits; slow && bits > 0 {
		s.quant = fmcw.NewQuantizer(bits, adcFullScale(prop, nRx, synth.Config().NoiseFloorWatts))
	}
	return s
}

// ringCapacity bounds how many recycled batches a source retains. The
// pipeline keeps at most depth frames buffered per stage channel plus a
// handful in flight, so this comfortably covers every batch the pipeline
// can have live at once — the ring never drops a buffer in practice and,
// unlike the sync.Pool it replaced, never loses them to a GC cycle
// either (the pool's per-GC flush was a steady trickle of re-allocated
// noise frames on long runs).
const ringCapacity = 32

func (s *simSource) NumRx() int { return s.nRx }

// Frames returns the total number of frames the source will produce —
// the streaming consumers use it to pre-size their result buffers.
func (s *simSource) Frames() int { return s.frames }

func (s *simSource) Recycle(b *FrameBatch) { s.ring.put(b) }

func (s *simSource) batch() *FrameBatch { return s.ring.get() }

func (s *simSource) Next() *FrameBatch {
	if s.i >= s.frames {
		return nil
	}
	i := s.i
	s.i++
	t := float64(i) * s.interval

	b := s.batch()
	b.Index = i
	b.T = t
	b.States = b.States[:0]
	// Ordered RNG work, subject by subject: exactly the draw sequence of
	// the serial loop (subject A's wander, then B's).
	for si := range s.sims {
		st := s.trajs[si].At(t)
		b.States = append(b.States, st)
		s.refl[si] = s.sims[si].reflectorsInto(s.refl[si], st, s.tx, s.nRx, s.interval)
	}

	if s.slow {
		b.synth = nil
		b.Frames = nil
		b.sweeps16 = nil
		spf := s.synth.Config().SweepsPerFrame
		ns := s.synth.Config().SamplesPerSweep()
		if len(b.sweeps) != s.nRx {
			b.sweeps = make([][][]float64, s.nRx)
		}
		if s.quant != nil {
			if len(b.codes16) != s.nRx {
				b.codes16 = make([][]int16, s.nRx)
			}
			if len(b.sweeps16) != s.nRx {
				b.sweeps16 = make([][][]int16, s.nRx)
			}
		}
		for k := 0; k < s.nRx; k++ {
			s.paths = append(s.paths[:0], s.prop.StaticPaths(k)...)
			for si := range s.sims {
				for _, r := range s.refl[si][k] {
					s.paths = s.prop.AppendTargetPaths(s.paths, k, r.pt, r.rcs)
				}
			}
			// Sweep-by-sweep, each sweep's noise in sample order: the
			// exact RNG sequence SynthesizeComplexFrameSlow consumes, so
			// deferring the transforms perturbs no output bit.
			sw := b.sweeps[k]
			if len(sw) != spf {
				sw = make([][]float64, spf)
			}
			for j := range sw {
				sw[j] = s.synth.SynthesizeSweepInto(sw[j], s.paths, s.rng)
			}
			b.sweeps[k] = sw
			if s.quant != nil {
				// The modeled ADC digitizes right at the source: the
				// workers only ever see the quantized codes (one
				// contiguous buffer per antenna — the recorder writes it
				// verbatim, so live == recorded == replayed codes).
				codes := b.codes16[k]
				if len(codes) != spf*ns {
					codes = make([]int16, spf*ns)
				}
				views := b.sweeps16[k]
				if len(views) != spf {
					views = make([][]int16, spf)
				}
				for j := range sw {
					views[j] = s.quant.Quantize(codes[j*ns:(j+1)*ns], sw[j])
				}
				b.codes16[k] = codes
				b.sweeps16[k] = views
			}
		}
		if s.quant != nil {
			b.scale16 = s.quant.Scale()
		}
		return b
	}

	b.Frames = nil
	b.sweeps = nil
	b.sweeps16 = nil
	if len(b.synth) != s.nRx {
		b.synth = make([]synthJob, s.nRx)
	}
	for k := 0; k < s.nRx; k++ {
		j := &b.synth[k]
		j.targets = j.targets[:0]
		for si := range s.sims {
			j.targets = append(j.targets, s.refl[si][k]...)
		}
		// Noise is drawn antenna by antenna, each frame in bin order —
		// the same generator sequence the fused serial synthesis
		// consumes (fmcw.NoiseFrame documents the contract).
		j.noise = s.synth.NoiseFrame(s.rng, j.noise)
	}
	return b
}
