package witrack

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (see DESIGN.md's per-experiment index). Each bench
// runs a reduced-scale workload per iteration and reports the headline
// numbers as custom metrics, so `go test -bench=. -benchmem` regenerates
// the whole evaluation in a few minutes. Full paper-scale runs are
// produced by `go run ./cmd/witrack-bench -scale paper`.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"witrack/internal/experiments"
)

// benchScale keeps per-iteration cost around a second or two.
func benchScale() experiments.Scale {
	return experiments.Scale{Runs: 4, Duration: 20, Gestures: 10, ActivityReps: 4}
}

// BenchmarkE1Resolution regenerates the §4.1 resolution numbers (Eq. 3):
// C/2B = 8.8 cm for the 1.69 GHz sweep.
func BenchmarkE1Resolution(b *testing.B) {
	var last *experiments.ResolutionResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Resolution(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.TheoreticalResolution*100, "theory_cm")
	b.ReportMetric(last.MeasuredSeparability*100, "measured_cm")
}

// BenchmarkE2SpectrogramPipeline regenerates Fig. 3: raw spectrogram,
// background subtraction, contour tracking. Metrics: fraction of energy
// in static stripes before/after subtraction.
func BenchmarkE2SpectrogramPipeline(b *testing.B) {
	var before, after float64
	for i := 0; i < b.N; i++ {
		sr, err := experiments.SpectrogramDemo(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		before, after = experiments.StaticStripePersistence(sr)
	}
	b.ReportMetric(before, "static_frac_raw")
	b.ReportMetric(after, "static_frac_subtracted")
}

// BenchmarkE3LOSAccuracy regenerates Fig. 8(a): line-of-sight 3D error
// CDF. Paper medians: 9.9 / 8.6 / 17.7 cm (x/y/z).
func BenchmarkE3LOSAccuracy(b *testing.B) {
	var res *experiments.AccuracyResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Accuracy3D(false, benchScale(), int64(i*997+1))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	x, y, z := res.Errors.Medians()
	b.ReportMetric(x*100, "median_x_cm")
	b.ReportMetric(y*100, "median_y_cm")
	b.ReportMetric(z*100, "median_z_cm")
}

// BenchmarkE4ThroughWallAccuracy regenerates Fig. 8(b): through-wall 3D
// error CDF. Paper medians: 13.1 / 10.25 / 21.0 cm (x/y/z).
func BenchmarkE4ThroughWallAccuracy(b *testing.B) {
	var res *experiments.AccuracyResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Accuracy3D(true, benchScale(), int64(i*991+1))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	x, y, z := res.Errors.Medians()
	px, py, pz := res.Errors.P90s()
	b.ReportMetric(x*100, "median_x_cm")
	b.ReportMetric(y*100, "median_y_cm")
	b.ReportMetric(z*100, "median_z_cm")
	b.ReportMetric(px*100, "p90_x_cm")
	b.ReportMetric(py*100, "p90_y_cm")
	b.ReportMetric(pz*100, "p90_z_cm")
}

// BenchmarkE5AccuracyVsDistance regenerates Fig. 9: through-wall error
// versus subject distance; medians grow with range.
func BenchmarkE5AccuracyVsDistance(b *testing.B) {
	var bins []experiments.DistanceBin
	for i := 0; i < b.N; i++ {
		r, err := experiments.AccuracyVsDistance(benchScale(), int64(i*7+2))
		if err != nil {
			b.Fatal(err)
		}
		bins = r
	}
	if len(bins) > 0 {
		_, _, nearZ := bins[0].Errors.Medians()
		_, _, farZ := bins[len(bins)-1].Errors.Medians()
		b.ReportMetric(nearZ*100, "near_z_cm")
		b.ReportMetric(farZ*100, "far_z_cm")
		b.ReportMetric(float64(bins[0].Meters), "near_m")
		b.ReportMetric(float64(bins[len(bins)-1].Meters), "far_m")
	}
}

// BenchmarkE6AntennaSeparation regenerates Fig. 10: error versus
// T-array separation; error shrinks as the array widens (§9.3).
func BenchmarkE6AntennaSeparation(b *testing.B) {
	seps := []float64{0.25, 1.0, 2.0}
	var pts []experiments.SeparationPoint
	for i := 0; i < b.N; i++ {
		r, err := experiments.AccuracyVsSeparation(seps, experiments.Scale{Runs: 3, Duration: 15}, int64(i*13+3))
		if err != nil {
			b.Fatal(err)
		}
		pts = r
	}
	if len(pts) == 3 {
		_, _, zNarrow := pts[0].Errors.Medians()
		_, _, zWide := pts[2].Errors.Medians()
		b.ReportMetric(zNarrow*100, "z_cm_at_25cm")
		b.ReportMetric(zWide*100, "z_cm_at_2m")
	}
}

// BenchmarkE7PointingAccuracy regenerates Fig. 11: pointing-direction
// error CDF. Paper: median 11.2 deg, 90th percentile 37.9 deg.
func BenchmarkE7PointingAccuracy(b *testing.B) {
	var res *experiments.PointingResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Pointing(benchScale(), int64(i*17+4))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.Median(), "median_deg")
	b.ReportMetric(res.P90(), "p90_deg")
	b.ReportMetric(float64(res.Analyzed)/float64(res.Attempted), "analyzed_frac")
}

// BenchmarkE8GestureVariance regenerates Fig. 5's contrast: whole-body
// motion is strong and spatially spread; an arm is weak and compact.
func BenchmarkE8GestureVariance(b *testing.B) {
	var gc *experiments.GestureContrast
	for i := 0; i < b.N; i++ {
		g, err := experiments.GestureDemo(int64(i*19 + 5))
		if err != nil {
			b.Fatal(err)
		}
		gc = g
	}
	b.ReportMetric(gc.BodyPower/gc.ArmPower, "power_ratio")
	b.ReportMetric(gc.BodySpread, "body_spread_m")
	b.ReportMetric(gc.ArmSpread, "arm_spread_m")
}

// BenchmarkE9ElevationTraces regenerates Fig. 6: elevation over time for
// walk / sit-chair / sit-floor / fall.
func BenchmarkE9ElevationTraces(b *testing.B) {
	var traces []experiments.ElevationTrace
	for i := 0; i < b.N; i++ {
		r, err := experiments.ElevationTraces(int64(i*23 + 6))
		if err != nil {
			b.Fatal(err)
		}
		traces = r
	}
	for _, tr := range traces {
		n := len(tr.Z)
		if n == 0 {
			continue
		}
		final := tr.Z[n-1]
		switch tr.Activity.String() {
		case "walk":
			b.ReportMetric(final, "final_z_walk_m")
		case "fall":
			b.ReportMetric(final, "final_z_fall_m")
		}
	}
}

// BenchmarkE10FallDetection regenerates the §9.5 fall study. Paper:
// precision 96.9%, recall 93.9%, F = 94.4% over 132 experiments.
func BenchmarkE10FallDetection(b *testing.B) {
	var res *experiments.FallStudyResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.FallStudy(benchScale(), int64(i*29+7))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.Precision*100, "precision_pct")
	b.ReportMetric(res.Recall*100, "recall_pct")
	b.ReportMetric(res.FMeasure*100, "f_measure_pct")
}

// BenchmarkE11Latency regenerates the §7 real-time claim: per-location
// processing latency far below the 75 ms budget.
func BenchmarkE11Latency(b *testing.B) {
	var res *experiments.LatencyResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Latency(int64(i*31 + 8))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(res.PerFrame.Microseconds()), "us_per_frame")
	b.ReportMetric(res.FramesPerSec, "frames_per_sec")
}

// BenchmarkE12VsRTIBaseline regenerates the §2 claim: WiTrack's 2D
// accuracy is >= 5x better than radio tomographic imaging.
func BenchmarkE12VsRTIBaseline(b *testing.B) {
	var res *experiments.RTIComparison
	for i := 0; i < b.N; i++ {
		r, err := experiments.VsRTI(experiments.Scale{Runs: 3, Duration: 15}, int64(i*37+9))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.WiTrackMedian2D*100, "witrack_2d_cm")
	b.ReportMetric(res.RTIMedian2D*100, "rti_2d_cm")
	b.ReportMetric(res.Ratio, "ratio")
}

// BenchmarkA1ContourVsPeak is the §4.3 ablation: bottom-contour tracking
// versus strongest-peak tracking under dynamic multipath.
func BenchmarkA1ContourVsPeak(b *testing.B) {
	var res *experiments.AblationContourResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationContourVsPeak(experiments.Scale{Runs: 3, Duration: 15}, int64(i*41+10))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.ContourMedian3D*100, "contour_cm")
	b.ReportMetric(res.StrongestMedian3D*100, "strongest_cm")
}

// BenchmarkA2DenoisingAblation is the §4.4 ablation: denoising stages
// disabled one at a time.
func BenchmarkA2DenoisingAblation(b *testing.B) {
	var res *experiments.AblationDenoiseResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationDenoising(experiments.Scale{Runs: 3, Duration: 15}, int64(i*43+11))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.FullMedian3D*100, "full_cm")
	b.ReportMetric(res.NoKalmanMedian3D*100, "no_kalman_cm")
	b.ReportMetric(res.LooseGateMedian3D*100, "loose_gate_cm")
}

// BenchmarkA3ExtraAntennas is the §5 extension: a 4th receive antenna
// over-constrains the ellipsoid intersection.
func BenchmarkA3ExtraAntennas(b *testing.B) {
	var res *experiments.AblationAntennasResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationExtraAntennas(experiments.Scale{Runs: 3, Duration: 15}, int64(i*47+12))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.ThreeRxMedian3D*100, "rx3_cm")
	b.ReportMetric(res.FourRxMedian3D*100, "rx4_cm")
}

// BenchmarkX1StaticUser measures the §10 extension: a motionless person
// is invisible to consecutive-frame subtraction but localizable after an
// empty-room background calibration.
func BenchmarkX1StaticUser(b *testing.B) {
	var res *experiments.StaticUserResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.StaticUser(int64(i*53 + 13))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.ValidFracUncalibrated, "valid_frac_uncal")
	b.ReportMetric(res.ValidFracCalibrated, "valid_frac_cal")
	b.ReportMetric(res.MedianErrCalibrated*100, "median_err_cm")
}

// BenchmarkX2TwoPerson measures the §10 extension: concurrent tracking
// of two movers via two-TOF extraction and assignment disambiguation.
func BenchmarkX2TwoPerson(b *testing.B) {
	var res *experiments.TwoPersonResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.TwoPerson(20, int64(i*59+18))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.MedianErr2D*100, "median_2d_cm")
	b.ReportMetric(res.ValidFrac, "valid_frac")
}

// BenchmarkPipelineThroughput measures frames/sec and allocs/frame of
// the staged pipeline: the fast spectral path with a single processing
// worker versus one worker per receive antenna (capped at GOMAXPROCS);
// the full time-domain sweep path (per-sample tone synthesis, then each
// frame's sweeps summed, windowed and transformed by one real-input
// FFT, the processing of the paper's §7 implementation); the replay of
// a recorded 14-bit int16 sweep trace; and one worker versus four on a
// four-antenna array. The fixed seed makes the worker-count variants
// compute bit-identical samples; only the schedule differs.
//
// Two wall-clock orderings, each measured within one run, can fail the
// benchmark; each case with a base case reports its speedup over it.
// Replaying quantized codes skips synthesis, so int16 replay must
// outrun the time-domain path. And four workers on the four-antenna
// array must reach speedupFloor times one worker at GOMAXPROCS 4, which
// gates only on hosts with at least 4 CPUs.
func BenchmarkPipelineThroughput(b *testing.B) {
	const speedupFloor = 1.5
	// The pipeline caps workers at the antenna count; label with the
	// count that actually runs.
	parallel := runtime.GOMAXPROCS(0)
	if nRx := len(DefaultConfig().Array.Rx); parallel > nRx {
		parallel = nRx
	}
	procs := min(4, runtime.NumCPU())
	fourFloor := speedupFloor
	if procs < 4 {
		fourFloor = 0 // the floor assumes a CPU for each of the 4 workers
	}
	type benchCase struct {
		name     string
		workers  int
		slow     bool // time-domain sweep synthesis
		replay   bool // replay a recorded int16 sweep trace of the walk
		fourRx   bool // a "+" array (a fourth Rx above the Tx) at GOMAXPROCS procs
		duration float64
		base     string  // an earlier case this one's speedup is over
		floor    float64 // the least speedup over base; 0 does not gate
	}
	cases := []benchCase{{name: "workers=1", workers: 1, duration: 30}}
	if parallel > 1 {
		cases = append(cases, benchCase{name: fmt.Sprintf("workers=%d", parallel), workers: parallel, duration: 30})
	}
	// The time-domain path costs ~50x the spectral path per frame; a
	// shorter trajectory keeps the 1x smoke run quick while still
	// averaging hundreds of frames.
	cases = append(cases,
		benchCase{name: "time-domain-sweeps", slow: true, duration: 5},
		benchCase{name: "int16-replay", replay: true, duration: 5, base: "time-domain-sweeps", floor: 1},
		benchCase{name: "four-rx-workers=1", workers: 1, fourRx: true, duration: 30},
		benchCase{name: "four-rx-workers=4", workers: 4, fourRx: true, duration: 30,
			base: "four-rx-workers=1", floor: fourFloor})
	fps := map[string]float64{}
	var int16Trace []byte // recorded once, on the replay case's first round
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Seed = 1
			cfg.SlowSynth = bc.slow || bc.replay
			if bc.replay {
				cfg.Radio.ADCBits = 14
			}
			if bc.fourRx {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				sep := cfg.Array.Rx[1].X
				cfg.Array.Rx = append(cfg.Array.Rx, Vec3{Z: cfg.Array.Tx.Z + sep})
			}
			dev, err := NewDevice(cfg)
			if err != nil {
				b.Fatal(err)
			}
			dev.Workers = bc.workers
			walk := NewRandomWalk(DefaultWalkConfig(
				StandardRegion(), 0.96, bc.duration, 1))
			pass := func() int { return dev.Run(walk).Frames }
			if bc.replay {
				if int16Trace == nil {
					int16Trace = recordSweepTrace(b, cfg, walk)
				}
				pass = func() int { return replayTrace(b, dev, int16Trace) }
			}
			pass() // warm the device's buffers and recycling ring
			var frames int
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				dev.Reset()
				frames += pass()
			}
			elapsed := time.Since(start)
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			fps[bc.name] = float64(frames) / elapsed.Seconds()
			b.ReportMetric(fps[bc.name], "frames/sec")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(frames), "allocs/frame")

			// A -bench filter may have skipped the base case.
			if base := fps[bc.base]; base > 0 {
				speedup := fps[bc.name] / base
				b.ReportMetric(speedup, "speedup")
				switch {
				case bc.floor == 0:
					b.Logf("%.2fx over %s; no floor gates on %d CPUs", speedup, bc.base, runtime.NumCPU())
				case speedup < bc.floor:
					b.Errorf("%.2fx over %s, below the %.1fx floor", speedup, bc.base, bc.floor)
				}
			}
		})
	}
}

// recordSweepTrace records the walk on a fresh device built from cfg into
// an in-memory sweep trace: int16 ADC codes when cfg sets ADCBits.
func recordSweepTrace(b *testing.B, cfg Config, walk Trajectory) []byte {
	b.Helper()
	dev, err := NewDevice(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, dev.SweepTraceHeader())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dev.RecordTo(tw, walk); err != nil {
		b.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// replayTrace streams a recorded trace through dev and returns the
// number of frames it emitted.
func replayTrace(b *testing.B, dev *Device, data []byte) int {
	b.Helper()
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	src := NewTraceSource(tr)
	ch, err := dev.StreamFrom(context.Background(), src)
	if err != nil {
		b.Fatal(err)
	}
	frames := 0
	for range ch {
		frames++
	}
	if err := src.Err(); err != nil {
		b.Fatal(err)
	}
	return frames
}
