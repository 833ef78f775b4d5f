package experiments

import (
	"math/rand"
	"time"

	"witrack/internal/baseline/rti"
	"witrack/internal/core"
	"witrack/internal/fmcw"
	"witrack/internal/geom"
	"witrack/internal/motion"
	"witrack/internal/rf"
	"witrack/internal/scenario"
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
