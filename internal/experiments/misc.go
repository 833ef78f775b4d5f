package experiments

import (
	"bytes"
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"time"

	"witrack/internal/baseline/rti"
	"witrack/internal/core"
	"witrack/internal/fmcw"
	"witrack/internal/geom"
	"witrack/internal/motion"
	"witrack/internal/rf"
	"witrack/internal/scenario"
	"witrack/internal/trace"
)

// ResolutionResult is the E1 artifact.
type ResolutionResult struct {
	// TheoreticalResolution is C/2B (Eq. 3); 8.8 cm for the paper radio.
	TheoreticalResolution float64
	// BinSpacing is the zero-padded FFT bin spacing (round trip).
	BinSpacing float64
	// MeasuredSeparability is the smallest round-trip separation at
	// which two equal-power reflectors produce two distinct peaks.
	MeasuredSeparability float64
}

// Resolution verifies Eq. 3 empirically: sweep two reflectors toward
// each other and record when their spectral peaks merge.
func Resolution(seed int64) (*ResolutionResult, error) {
	cfg := fmcw.Default()
	cfg.NoiseFloorWatts = 1e-20 // isolate pure spectral resolution
	synth := fmcw.NewSynthesizer(cfg)
	rng := rand.New(rand.NewSource(seed))
	res := &ResolutionResult{
		TheoreticalResolution: cfg.Resolution(),
		BinSpacing:            cfg.BinDistance(),
	}
	base := 10.0
	// Walk the separation down until the two peaks merge. Separations
	// are round-trip; one-way resolution is half of that.
	for sep := 2.0; sep > 0.01; sep -= 0.01 {
		paths := []fmcw.Path{
			{RoundTrip: base, PowerWatts: 1e-12, Phase: fmcw.PhaseFor(cfg, base)},
			{RoundTrip: base + sep, PowerWatts: 1e-12, Phase: fmcw.PhaseFor(cfg, base+sep)},
		}
		frame := synth.SynthesizeFrame(paths, rng)
		peaks := 0
		for _, p := range frameMaxima(frame) {
			lo := base - 1
			hi := base + sep + 1
			d := float64(p) * cfg.BinDistance()
			if d > lo && d < hi {
				peaks++
			}
		}
		if peaks >= 2 {
			res.MeasuredSeparability = sep / 2 // one-way
		} else {
			break
		}
	}
	return res, nil
}

func frameMaxima(f []float64) []int {
	var out []int
	max := 0.0
	for _, v := range f {
		if v > max {
			max = v
		}
	}
	thr := max / 4
	for i := 1; i < len(f)-1; i++ {
		if f[i] >= thr && f[i] > f[i-1] && f[i] >= f[i+1] {
			out = append(out, i)
		}
	}
	return out
}

// LatencyResult is the E11 artifact: processing time per output versus
// the paper's 75 ms budget.
type LatencyResult struct {
	PerFrame      time.Duration
	Budget        time.Duration
	FramesPerSec  float64
	WithinBudget  bool
	FramesSampled int
}

// Latency measures the signal-processing latency per 3D location output
// (tracking + localization; §7 reports < 75 ms end to end).
func Latency(seed int64) (*LatencyResult, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	dev, err := core.NewDevice(cfg)
	if err != nil {
		return nil, err
	}
	walk := motion.NewRandomWalk(motion.DefaultWalkConfig(
		Region(), cfg.Subject.CenterHeight(), 10, seed+1))
	run := dev.Run(walk)
	per := time.Duration(0)
	if run.Frames > 0 {
		per = run.ProcessingTime / time.Duration(run.Frames)
	}
	res := &LatencyResult{
		PerFrame:      per,
		Budget:        75 * time.Millisecond,
		FramesSampled: run.Frames,
	}
	if per > 0 {
		res.FramesPerSec = float64(time.Second) / float64(per)
	}
	res.WithinBudget = per < res.Budget
	return res, nil
}

// RTIComparison is the E12 artifact: 2D accuracy of WiTrack vs the
// radio-tomography baseline on the same positions (§2 claims >= 5x).
type RTIComparison struct {
	WiTrackMedian2D float64
	RTIMedian2D     float64
	Ratio           float64
}

// VsRTI runs both systems over the same workload.
func VsRTI(sc Scale, seed int64) (*RTIComparison, error) {
	// WiTrack 2D (xy Euclidean) errors from a through-wall run.
	var wErrs []float64
	for run := 0; run < sc.Runs; run++ {
		sp := walkSpec("vs-rti", seed+int64(run)*71, run, seed,
			sc.Duration, seed+int64(run)*29).ThroughWall()
		err := runTracking(sp,
			func(s core.Sample, est geom.Vec3, _ float64) {
				wErrs = append(wErrs, est.XY().Dist(s.Truth.XY()))
			})
		if err != nil {
			return nil, err
		}
	}
	// RTI on positions sampled from the same kind of walks.
	area := rf.StandardArea()
	net, err := rti.New(rti.DefaultConfig(area.XMin, area.XMax, area.YMin, area.YMax))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var rErrs []float64
	for run := 0; run < sc.Runs; run++ {
		walk := motion.NewRandomWalk(motion.DefaultWalkConfig(Region(), 0.96, sc.Duration, seed+int64(run)*43))
		for t := 0.0; t < walk.Duration(); t += 1.0 {
			truth := walk.At(t).Center
			est := net.Locate(truth, rng)
			rErrs = append(rErrs, est.XY().Dist(truth.XY()))
		}
	}
	res := &RTIComparison{
		WiTrackMedian2D: median(wErrs),
		RTIMedian2D:     median(rErrs),
	}
	if res.WiTrackMedian2D > 0 {
		res.Ratio = res.RTIMedian2D / res.WiTrackMedian2D
	}
	return res, nil
}

// AblationContourResult is A1: contour vs strongest-peak tracking.
type AblationContourResult struct {
	ContourMedian3D   float64
	StrongestMedian3D float64
}

// AblationContourVsPeak re-runs the through-wall accuracy workload with
// the tracker's peak rule swapped, quantifying §4.3's design choice.
func AblationContourVsPeak(sc Scale, seed int64) (*AblationContourResult, error) {
	run := func(mode string) (float64, error) {
		var errs []float64
		for r := 0; r < sc.Runs; r++ {
			sp := walkSpec("ablation-contour", seed+int64(r)*53, r, seed,
				sc.Duration, seed+int64(r)*37).
				ThroughWall().
				Device(scenario.DeviceSpec{Tracker: scenario.TrackerSpec{Mode: mode}})
			err := runTracking(sp,
				func(s core.Sample, est geom.Vec3, _ float64) {
					errs = append(errs, est.Dist(s.Truth))
				})
			if err != nil {
				return 0, err
			}
		}
		return median(errs), nil
	}
	contour, err := run("contour")
	if err != nil {
		return nil, err
	}
	strongest, err := run("strongest")
	if err != nil {
		return nil, err
	}
	return &AblationContourResult{ContourMedian3D: contour, StrongestMedian3D: strongest}, nil
}

// AblationDenoiseResult is A2: the §4.4 denoising stages on/off.
type AblationDenoiseResult struct {
	FullMedian3D      float64 // full pipeline
	NoKalmanMedian3D  float64 // Kalman effectively disabled
	LooseGateMedian3D float64 // outlier gate effectively disabled
}

// AblationDenoising quantifies the §4.4 stages by disabling them.
func AblationDenoising(sc Scale, seed int64) (*AblationDenoiseResult, error) {
	run := func(tracker scenario.TrackerSpec) (float64, error) {
		var errs []float64
		for r := 0; r < sc.Runs; r++ {
			sp := walkSpec("ablation-denoise", seed+int64(r)*41, r, seed,
				sc.Duration, seed+int64(r)*23).
				ThroughWall().
				Device(scenario.DeviceSpec{Tracker: tracker})
			err := runTracking(sp,
				func(s core.Sample, est geom.Vec3, _ float64) {
					errs = append(errs, est.Dist(s.Truth))
				})
			if err != nil {
				return 0, err
			}
		}
		return median(errs), nil
	}
	full, err := run(scenario.TrackerSpec{})
	if err != nil {
		return nil, err
	}
	// A huge process noise makes the filter follow raw measurements.
	noKalmanQ := 1e6
	noKalman, err := run(scenario.TrackerSpec{KalmanQ: &noKalmanQ})
	if err != nil {
		return nil, err
	}
	looseJump := 1e9
	looseGate, err := run(scenario.TrackerSpec{MaxJump: &looseJump})
	if err != nil {
		return nil, err
	}
	return &AblationDenoiseResult{
		FullMedian3D:      full,
		NoKalmanMedian3D:  noKalman,
		LooseGateMedian3D: looseGate,
	}, nil
}

// AblationAntennasResult is A3: 3 vs 4 receive antennas.
type AblationAntennasResult struct {
	ThreeRxMedian3D float64
	FourRxMedian3D  float64
}

// AblationExtraAntennas adds a fourth receive antenna (above the Tx,
// completing a "+") and measures the over-constrained solve (§5's
// robustness extension).
func AblationExtraAntennas(sc Scale, seed int64) (*AblationAntennasResult, error) {
	run := func(fourth bool) (float64, error) {
		var errs []float64
		for r := 0; r < sc.Runs; r++ {
			sp := walkSpec("ablation-antennas", seed+int64(r)*31, r, seed,
				sc.Duration, seed+int64(r)*19).
				ThroughWall().
				Device(scenario.DeviceSpec{ExtraTopRx: fourth})
			err := runTracking(sp,
				func(s core.Sample, est geom.Vec3, _ float64) {
					errs = append(errs, est.Dist(s.Truth))
				})
			if err != nil {
				return 0, err
			}
		}
		return median(errs), nil
	}
	three, err := run(false)
	if err != nil {
		return nil, err
	}
	four, err := run(true)
	if err != nil {
		return nil, err
	}
	return &AblationAntennasResult{ThreeRxMedian3D: three, FourRxMedian3D: four}, nil
}

// PipelineThroughputResult is the X3 artifact: frame throughput of the
// staged streaming pipeline with a serial processing stage versus one
// worker per receive antenna (the paper's §7 FPGA+multicore analog),
// plus the steady-state allocation rate and the time-domain sweep path's
// numbers — the quantities the planned-FFT/zero-allocation work is
// measured by (see BENCH_pipeline.json).
type PipelineThroughputResult struct {
	// SerialFPS is frames/sec with Workers=1.
	SerialFPS float64 `json:"serial_fps"`
	// ParallelFPS is frames/sec with one worker per antenna.
	ParallelFPS float64 `json:"parallel_fps"`
	// Speedup is ParallelFPS / SerialFPS. On a single-CPU host this
	// hovers near 1: the pipeline still runs, the hardware cannot.
	Speedup float64 `json:"speedup"`
	// Workers is the parallel worker count used.
	Workers int `json:"workers"`
	// Frames is the number of frames in each measured run.
	Frames int `json:"frames"`
	// AllocsPerFrame is the heap allocations per frame of the parallel
	// fast-path run (including warm-up; the steady state is lower).
	AllocsPerFrame float64 `json:"allocs_per_frame"`
	// TimeDomainFPS is frames/sec of the full time-domain sweep path
	// (SlowSynth: per-sample tone synthesis, window + real-input FFT per
	// sweep, coherent averaging) with one worker per antenna.
	TimeDomainFPS float64 `json:"time_domain_fps"`
	// TimeDomainAllocsPerFrame is the allocation rate of that run.
	TimeDomainAllocsPerFrame float64 `json:"time_domain_allocs_per_frame"`
	// Int16ReplayFPS is frames/sec replaying a quantized int16 sweep
	// trace (delta-decoded ADC codes through the int16 frame body)
	// with one worker per antenna. Replay pays no
	// synthesis cost, so this is the decode+FFT throughput of the
	// fixed-point path and must beat TimeDomainFPS.
	Int16ReplayFPS float64 `json:"int16_replay_fps"`
	// Int16ReplayAllocsPerFrame is the allocation rate of that run.
	Int16ReplayAllocsPerFrame float64 `json:"int16_replay_allocs_per_frame"`
	// Int16BytesPerFrame is the on-wire (compressed) size per frame of
	// the int16 trace the replay consumed.
	Int16BytesPerFrame float64 `json:"int16_bytes_per_frame"`
	// Int16MaxError is the measured quantized-vs-float64 spectrum error
	// (largest absolute per-bin deviation over a set of realistic
	// frames); it must stay below Int16ErrorBound, the synthesizer's
	// analytic per-bin quantization bound for the 14-bit converter.
	Int16MaxError   float64 `json:"int16_max_error"`
	Int16ErrorBound float64 `json:"int16_error_bound"`
	// SerializedHost is true when the measurement ran with a single
	// schedulable CPU (GOMAXPROCS=1 or a one-core machine): every
	// speedup in this result is then a measure of pipeline overhead,
	// not of parallel scaling, and should not be gated on.
	SerializedHost bool `json:"serialized_host"`
	// SpeedupCurve is the measured scaling surface: frame throughput on
	// a four-antenna array across a GOMAXPROCS × worker-count sweep,
	// each point's speedup relative to the one-worker run at the same
	// GOMAXPROCS.
	SpeedupCurve []SpeedupPoint `json:"speedup_curve,omitempty"`
}

// SpeedupPoint is one cell of the scaling sweep.
type SpeedupPoint struct {
	// GOMAXPROCS is the scheduler width the point ran under.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Workers is the per-antenna pipeline worker count.
	Workers int `json:"workers"`
	// FPS is the measured frame throughput.
	FPS float64 `json:"fps"`
	// Speedup is FPS over the Workers=1 FPS at the same GOMAXPROCS.
	Speedup float64 `json:"speedup"`
}

// PipelineThroughput times identical fixed-seed runs (bit-identical
// samples; only the schedule differs) at the two worker counts, then
// measures the time-domain sweep path, the int16 replay path and its
// quantization-error oracle, and the GOMAXPROCS × worker scaling curve.
func PipelineThroughput(duration float64, seed int64) (*PipelineThroughputResult, error) {
	timeRun := func(workers int, slow, fourRx bool) (fps, allocsPerFrame float64, frames int, err error) {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.SlowSynth = slow
		if fourRx {
			// The default T array has three receive antennas, capping the
			// worker count at three; the scaling sweep completes the "+"
			// with a fourth Rx above the Tx so a four-worker point exists.
			sep := cfg.Array.Rx[1].X
			cfg.Array.Rx = append(cfg.Array.Rx, geom.Vec3{X: 0, Y: 0, Z: cfg.Array.Tx.Z + sep})
		}
		dev, err := core.NewDevice(cfg)
		if err != nil {
			return 0, 0, 0, err
		}
		dev.Workers = workers
		walk := motion.NewRandomWalk(motion.DefaultWalkConfig(
			Region(), cfg.Subject.CenterHeight(), duration, seed+1))
		// A short warm-up run populates the device's recycling ring (and
		// the runtime's size-class caches), so the measured run reports
		// steady-state allocation behavior instead of cold-start costs.
		warm := motion.NewRandomWalk(motion.DefaultWalkConfig(
			Region(), cfg.Subject.CenterHeight(), 2, seed+2))
		dev.Run(warm)
		dev.Reset()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res := dev.Run(walk)
		elapsed := time.Since(start).Seconds()
		runtime.ReadMemStats(&m1)
		return float64(res.Frames) / elapsed,
			float64(m1.Mallocs-m0.Mallocs) / float64(res.Frames),
			res.Frames, nil
	}
	serial, _, frames, err := timeRun(1, false, false)
	if err != nil {
		return nil, err
	}
	parallel, allocs, _, err := timeRun(0, false, false)
	if err != nil {
		return nil, err
	}
	timeDomain, tdAllocs, _, err := timeRun(0, true, false)
	if err != nil {
		return nil, err
	}
	i16, i16Allocs, i16BPF, err := timeInt16Replay(duration, seed)
	if err != nil {
		return nil, err
	}

	qErr, qBound := int16SpectrumOracle(seed)

	nRx := len(core.DefaultConfig().Array.Rx)
	res := &PipelineThroughputResult{
		SerialFPS:                 serial,
		ParallelFPS:               parallel,
		Speedup:                   parallel / serial,
		Workers:                   nRx,
		Frames:                    frames,
		AllocsPerFrame:            allocs,
		TimeDomainFPS:             timeDomain,
		TimeDomainAllocsPerFrame:  tdAllocs,
		Int16ReplayFPS:            i16,
		Int16ReplayAllocsPerFrame: i16Allocs,
		Int16BytesPerFrame:        i16BPF,
		Int16MaxError:             qErr,
		Int16ErrorBound:           qBound,
		SerializedHost:            runtime.NumCPU() == 1 || runtime.GOMAXPROCS(0) == 1,
	}

	// Scaling sweep: GOMAXPROCS × workers on the four-antenna array.
	// Each GOMAXPROCS column is normalized by its own one-worker run, so
	// a point isolates pipeline scaling from scheduler width.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procsSeen := map[int]bool{}
	for _, procs := range []int{1, 2, 4} {
		if procs > runtime.NumCPU() || procsSeen[procs] {
			continue
		}
		procsSeen[procs] = true
		runtime.GOMAXPROCS(procs)
		base := 0.0
		for _, workers := range []int{1, 2, 4} {
			fps, _, _, err := timeRun(workers, false, true)
			if err != nil {
				return nil, err
			}
			if workers == 1 {
				base = fps
			}
			res.SpeedupCurve = append(res.SpeedupCurve, SpeedupPoint{
				GOMAXPROCS: procs,
				Workers:    workers,
				FPS:        fps,
				Speedup:    fps / base,
			})
		}
	}
	return res, nil
}

// timeInt16Replay records a quantized walk into an in-memory int16
// sweep trace once, then times a warm replay of it with one worker per
// antenna: delta-decoded ADC codes streaming through the int16 frame
// body, no synthesis on the clock. Returns frame
// throughput, the allocation rate, and the compressed trace bytes per
// frame.
func timeInt16Replay(duration float64, seed int64) (fps, allocsPerFrame, bytesPerFrame float64, err error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.SlowSynth = true
	cfg.Radio.ADCBits = 14
	rec, err := core.NewDevice(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	walk := motion.NewRandomWalk(motion.DefaultWalkConfig(
		Region(), cfg.Subject.CenterHeight(), duration, seed+1))
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, rec.SweepTraceHeader())
	if err != nil {
		return 0, 0, 0, err
	}
	frames, err := rec.RecordTo(tw, walk)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := tw.Close(); err != nil {
		return 0, 0, 0, err
	}
	if frames == 0 {
		return 0, 0, 0, nil
	}
	data := buf.Bytes()

	dev, err := core.NewDevice(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	dev.Workers = 0
	replay := func() (int, error) {
		tr, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			return 0, err
		}
		src := core.NewTraceSource(tr)
		ch, err := dev.StreamFrom(context.Background(), src)
		if err != nil {
			return 0, err
		}
		n := 0
		for range ch {
			n++
		}
		return n, src.Err()
	}
	// Warm pass fills the recycling ring so the measured pass reports
	// steady-state allocation behavior (same discipline as timeRun).
	if _, err := replay(); err != nil {
		return 0, 0, 0, err
	}
	dev.Reset()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n, err := replay()
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, 0, 0, err
	}
	if n == 0 {
		return 0, 0, 0, nil
	}
	return float64(n) / elapsed,
		float64(m1.Mallocs-m0.Mallocs) / float64(n),
		float64(len(data)) / float64(frames), nil
}

// int16SpectrumOracle measures the quantized sweep path against the
// unquantized float64 reference over a set of realistic frames: the
// worst absolute per-bin deviation across quantize → code sum →
// dequantize → window → FFT, together with the analytic bound it must stay
// under. The full scale comes from fmcw.ADCFullScale for the frame's
// paths, matching how core sizes a device's converter.
func int16SpectrumOracle(seed int64) (maxErr, bound float64) {
	cfg := fmcw.Default()
	s := fmcw.NewSynthesizer(cfg)
	rng := rand.New(rand.NewSource(seed))
	ws := s.NewSweepScratch()
	wsq := s.NewSweepScratch()
	sweeps := make([][]float64, cfg.SweepsPerFrame)
	codes := make([][]int16, cfg.SweepsPerFrame)
	for frame := 0; frame < 8; frame++ {
		rt := 4 + 8*rng.Float64()
		paths := []fmcw.Path{
			{RoundTrip: rt, PowerWatts: 1e-6, Phase: rng.Float64() * 2 * math.Pi},
			{RoundTrip: rt + 3, PowerWatts: 1e-9, Phase: rng.Float64() * 2 * math.Pi},
		}
		q := fmcw.NewQuantizer(14, fmcw.ADCFullScale(paths, cfg.NoiseFloorWatts))
		for i := range sweeps {
			sweeps[i] = s.SynthesizeSweep(paths, rng)
			codes[i] = q.Quantize(codes[i], sweeps[i])
		}
		want := s.ComplexFrameFromSweepsInto(nil, sweeps, ws)
		got := s.ComplexFrameFromSweepsInt16Into(nil, codes, q.Scale(), wsq)
		for i := range want {
			if e := cmplx.Abs(got[i] - want[i]); e > maxErr {
				maxErr = e
			}
		}
		if b := s.QuantErrorBound(q.Scale()); b > bound {
			bound = b
		}
	}
	return maxErr, bound
}
