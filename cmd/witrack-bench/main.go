// Command witrack-bench regenerates every table and figure of the
// paper's evaluation (§8-§9) and prints paper-vs-measured rows. At
// -scale paper the workloads match the paper's (100 one-minute runs per
// accuracy figure, 132 fall experiments, ~100 gestures); -scale quick
// runs a reduced version in about a minute.
//
// Usage:
//
//	witrack-bench [-scale quick|paper] [-only E4,E7,...] [-seed 1] [-json BENCH_pipeline.json]
//	              [-baseline BENCH_pipeline.json] [-max-regress 0.20]
//
// With -json the headline metrics — pipeline frames/sec, allocs/frame,
// the time-domain sweep path numbers, and every per-experiment row — are
// also written to the given path as JSON. The checked-in
// BENCH_pipeline.json is the fixed baseline the CI bench gate compares
// against; regenerate it deliberately after perf-relevant changes (CI
// writes its fresh measurements to BENCH_new.json and uploads that as
// an artifact, leaving the baseline untouched).
//
// With -baseline the freshly measured pipeline throughput is compared
// against a previously written report: any frames/sec metric more than
// -max-regress (default 20%) below the baseline fails the run with exit
// status 1 — the CI bench-regression gate. Allocation-rate metrics are
// compared too (they are schedule-independent, so the bound is tight).
// Reports stamp the measuring host's CPU model; when the baseline was
// measured on a different host (or carries no stamp) the wall-clock
// fps floors are downgraded to warnings, while the +1 alloc/frame
// ceiling stays hard — clock speed varies by machine class, allocation
// counts do not.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"witrack/internal/experiments"
	"witrack/internal/motion"
)

// reportRow is one printed paper-vs-measured row, as serialized by -json.
type reportRow struct {
	Label    string `json:"label"`
	Paper    string `json:"paper"`
	Measured string `json:"measured"`
}

// report is the -json artifact.
type report struct {
	Scale       string                                `json:"scale"`
	Seed        int64                                 `json:"seed"`
	GeneratedAt string                                `json:"generated_at"`
	GoMaxProcs  int                                   `json:"gomaxprocs"`
	CPUModel    string                                `json:"cpu_model,omitempty"`
	Pipeline    *experiments.PipelineThroughputResult `json:"pipeline,omitempty"`
	Experiments map[string][]reportRow                `json:"experiments"`
	TotalSecs   float64                               `json:"total_seconds"`
}

// cpuModel identifies the measuring host's CPU: the baseline provenance
// the bench gate uses to decide whether wall-clock throughput floors are
// comparable. Falls back to GOOS/GOARCH when /proc/cpuinfo is absent
// (non-Linux hosts).
func cpuModel() string {
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					return strings.TrimSpace(v)
				}
			}
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}

// collector accumulates rows under the current section for -json output.
var collector = struct {
	section string
	rows    map[string][]reportRow
}{rows: map[string][]reportRow{}}

func main() {
	scaleName := flag.String("scale", "quick", "workload scale: quick, mid, or paper")
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	seed := flag.Int64("seed", 1, "base seed")
	jsonPath := flag.String("json", "", "also write headline metrics to this path as JSON")
	baselinePath := flag.String("baseline", "", "compare pipeline throughput against this earlier -json report")
	maxRegress := flag.Float64("max-regress", 0.20, "fail when throughput falls this fraction below -baseline")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "witrack-bench: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	if *maxRegress < 0 || *maxRegress >= 1 {
		fmt.Fprintf(os.Stderr, "witrack-bench: -max-regress must be in [0, 1), got %g\n", *maxRegress)
		os.Exit(2)
	}

	var sc experiments.Scale
	switch *scaleName {
	case "quick":
		sc = experiments.QuickScale()
	case "mid":
		sc = experiments.Scale{Runs: 24, Duration: 40, Gestures: 40, ActivityReps: 12}
	case "paper":
		sc = experiments.PaperScale()
	default:
		fmt.Fprintln(os.Stderr, "witrack-bench: -scale must be quick, mid, or paper")
		os.Exit(2)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	run := func(id string) bool { return len(want) == 0 || want[id] }

	fmt.Printf("WiTrack evaluation harness — scale=%s seed=%d\n", *scaleName, *seed)
	fmt.Printf("(paper numbers from MIT-CSAIL-TR-2013-030 / NSDI'14)\n\n")
	start := time.Now()

	if run("E1") {
		r, err := experiments.Resolution(*seed)
		check(err)
		section("E1  FMCW resolution (Eq. 3)")
		row("one-way resolution", "8.8 cm", fmt.Sprintf("%.1f cm theory, %.1f cm measured two-tone", r.TheoreticalResolution*100, r.MeasuredSeparability*100))
	}

	if run("E2") {
		sr, err := experiments.SpectrogramDemo(*seed)
		check(err)
		before, after := experiments.StaticStripePersistence(sr)
		section("E2  Fig.3 spectrogram pipeline")
		row("static-stripe energy fraction", "dominant before, gone after subtraction",
			fmt.Sprintf("%.2f raw -> %.3f subtracted", before, after))
		row("frames", "-", fmt.Sprintf("%d frames, %d range bins", len(sr.Raw.Frames), len(sr.Raw.Frames[0])))
	}

	if run("E3") {
		r, err := experiments.Accuracy3D(false, sc, *seed)
		check(err)
		x, y, z := r.Errors.Medians()
		px, py, pz := r.Errors.P90s()
		section("E3  Fig.8(a) line-of-sight 3D accuracy")
		row("median x/y/z", "9.9 / 8.6 / 17.7 cm", fmt.Sprintf("%.1f / %.1f / %.1f cm", x*100, y*100, z*100))
		row("90th pct x/y/z", "-", fmt.Sprintf("%.1f / %.1f / %.1f cm", px*100, py*100, pz*100))
		row("samples", "~480,000", fmt.Sprintf("%d", r.Samples))
	}

	if run("E4") {
		r, err := experiments.Accuracy3D(true, sc, *seed)
		check(err)
		x, y, z := r.Errors.Medians()
		px, py, pz := r.Errors.P90s()
		section("E4  Fig.8(b) through-wall 3D accuracy")
		row("median x/y/z", "13.1 / 10.25 / 21.0 cm", fmt.Sprintf("%.1f / %.1f / %.1f cm", x*100, y*100, z*100))
		row("90th pct x/y/z", "<= ~1ft / ~1ft / ~2ft", fmt.Sprintf("%.1f / %.1f / %.1f cm", px*100, py*100, pz*100))
		row("samples", "~480,000", fmt.Sprintf("%d", r.Samples))
	}

	if run("E5") {
		bins, err := experiments.AccuracyVsDistance(sc, *seed)
		check(err)
		section("E5  Fig.9 accuracy vs distance (through-wall)")
		for _, b := range bins {
			x, y, z := b.Errors.Medians()
			px, py, pz := b.Errors.P90s()
			row(fmt.Sprintf("%d m median (p90)", b.Meters), "grows 5-10 cm from 3 m to 11 m",
				fmt.Sprintf("x %.0f (%.0f), y %.0f (%.0f), z %.0f (%.0f) cm", x*100, px*100, y*100, py*100, z*100, pz*100))
		}
	}

	if run("E6") {
		pts, err := experiments.AccuracyVsSeparation([]float64{0.25, 0.5, 1.0, 1.5, 2.0}, sc, *seed)
		check(err)
		section("E6  Fig.10 accuracy vs antenna separation")
		for _, p := range pts {
			x, y, z := p.Errors.Medians()
			row(fmt.Sprintf("separation %.2f m", p.Separation),
				"@25cm medians <=17/12/31 cm; error shrinks with separation",
				fmt.Sprintf("x %.1f, y %.1f, z %.1f cm", x*100, y*100, z*100))
		}
	}

	if run("E7") {
		r, err := experiments.Pointing(sc, *seed)
		check(err)
		section("E7  Fig.11 pointing-direction accuracy")
		row("median / 90th pct", "11.2 / 37.9 deg", fmt.Sprintf("%.1f / %.1f deg (%d/%d gestures analyzed)",
			r.Median(), r.P90(), r.Analyzed, r.Attempted))
	}

	if run("E8") {
		gc, err := experiments.GestureDemo(*seed)
		check(err)
		section("E8  Fig.5 arm vs whole-body contrast")
		row("reflected power ratio body/arm", ">> 1 (arm reflection surface much smaller)",
			fmt.Sprintf("%.1fx", gc.BodyPower/gc.ArmPower))
		row("spatial spread body vs arm", "body variance >> arm variance",
			fmt.Sprintf("%.2f m vs %.2f m", gc.BodySpread, gc.ArmSpread))
	}

	if run("E9") {
		traces, err := experiments.ElevationTraces(*seed)
		check(err)
		section("E9  Fig.6 elevation traces")
		for _, tr := range traces {
			if len(tr.Z) == 0 {
				continue
			}
			final := tr.Z[len(tr.Z)-1]
			truth := tr.TruthZ[len(tr.TruthZ)-1]
			row(tr.Activity.String(), "walk/chair end high; floor-sit and fall end near ground",
				fmt.Sprintf("final z %.2f m (truth %.2f m)", final, truth))
		}
	}

	if run("E10") {
		r, err := experiments.FallStudy(sc, *seed)
		check(err)
		section("E10 §9.5 fall detection")
		for _, act := range motion.Activities() {
			row("classified as fall: "+act.String(), paperFallRow(act),
				fmt.Sprintf("%d / %d", r.Detected[act], r.Total[act]))
		}
		row("precision / recall / F", "96.9% / 93.9% / 94.4%",
			fmt.Sprintf("%.1f%% / %.1f%% / %.1f%%", r.Precision*100, r.Recall*100, r.FMeasure*100))
	}

	if run("E11") {
		r, err := experiments.Latency(*seed)
		check(err)
		section("E11 §7 real-time latency")
		row("processing per 3D output", "< 75 ms", fmt.Sprintf("%v (%.0f frames/s possible)", r.PerFrame, r.FramesPerSec))
	}

	if run("E12") {
		r, err := experiments.VsRTI(sc, *seed)
		check(err)
		section("E12 §2 2D accuracy vs radio tomography")
		row("median 2D error", ">= 5x better than RTI", fmt.Sprintf("WiTrack %.2f m vs RTI %.2f m (%.1fx)",
			r.WiTrackMedian2D, r.RTIMedian2D, r.Ratio))
	}

	if run("A1") {
		r, err := experiments.AblationContourVsPeak(sc, *seed)
		check(err)
		section("A1  ablation: contour vs strongest peak (§4.3)")
		row("median 3D error", "contour more robust than dominant-frequency tracking",
			fmt.Sprintf("contour %.2f m vs strongest %.2f m", r.ContourMedian3D, r.StrongestMedian3D))
	}

	if run("A2") {
		r, err := experiments.AblationDenoising(sc, *seed)
		check(err)
		section("A2  ablation: §4.4 denoising stages")
		row("median 3D error", "-", fmt.Sprintf("full %.2f m; no-Kalman %.2f m; loose gate %.2f m",
			r.FullMedian3D, r.NoKalmanMedian3D, r.LooseGateMedian3D))
	}

	if run("A3") {
		r, err := experiments.AblationExtraAntennas(sc, *seed)
		check(err)
		section("A3  ablation: 3 vs 4 receive antennas (§5)")
		row("median 3D error", "extra antennas add robustness",
			fmt.Sprintf("3 Rx %.2f m vs 4 Rx %.2f m", r.ThreeRxMedian3D, r.FourRxMedian3D))
	}

	if run("X1") {
		r, err := experiments.StaticUser(*seed)
		check(err)
		section("X1  §10 extension: static user via background calibration")
		row("valid-fix fraction", "0 without calibration (the stated limitation)",
			fmt.Sprintf("%.2f uncalibrated vs %.2f calibrated (median err %.2f m)",
				r.ValidFracUncalibrated, r.ValidFracCalibrated, r.MedianErrCalibrated))
	}

	if run("X2") {
		r, err := experiments.TwoPerson(sc.Duration, *seed+17)
		check(err)
		section("X2  §10 extension: two concurrent people")
		row("per-person median 2D error", "proposed, not evaluated in the paper",
			fmt.Sprintf("%.2f m (%.0f%% frames with a joint fix; run-to-run variance is high — see EXPERIMENTS.md)", r.MedianErr2D, r.ValidFrac*100))
	}

	var pipeline *experiments.PipelineThroughputResult
	if run("X3") {
		r, err := experiments.PipelineThroughput(sc.Duration, *seed)
		check(err)
		pipeline = r
		section("X3  staged pipeline throughput (§7 multicore analog)")
		hostNote := ""
		if r.SerializedHost {
			// One schedulable CPU: every "speedup" below measures pipeline
			// overhead, not parallel scaling — say so instead of printing
			// a misleading 0.99x.
			hostNote = " (serialized host)"
		}
		row("frames/sec serial vs parallel", "pipeline keeps up with the 80 frames/s radio",
			fmt.Sprintf("%.0f fps (1 worker) vs %.0f fps (%d workers, %.2fx on %d CPUs)%s",
				r.SerialFPS, r.ParallelFPS, r.Workers, r.Speedup, runtime.GOMAXPROCS(0), hostNote))
		row("allocs/frame (fast path)", "-", fmt.Sprintf("%.2f", r.AllocsPerFrame))
		row("time-domain sweep path", "per-sweep windowed FFT processing (§7)",
			fmt.Sprintf("%.0f fps, %.2f allocs/frame", r.TimeDomainFPS, r.TimeDomainAllocsPerFrame))
		row("int16 replay path", "quantized traces replay faster than time-domain synthesis",
			fmt.Sprintf("%.0f fps, %.2f allocs/frame, %.0f bytes/frame",
				r.Int16ReplayFPS, r.Int16ReplayAllocsPerFrame, r.Int16BytesPerFrame))
		row("int16 quantization error", "within the ADC's analytic bound",
			fmt.Sprintf("%.3g per bin (bound %.3g)", r.Int16MaxError, r.Int16ErrorBound))
		for _, p := range r.SpeedupCurve {
			row(fmt.Sprintf("scaling @ GOMAXPROCS=%d, %d workers", p.GOMAXPROCS, p.Workers),
				"throughput scales with workers on multicore hosts",
				fmt.Sprintf("%.0f fps, %.2fx%s", p.FPS, p.Speedup, hostNote))
		}
	}

	total := time.Since(start)
	fmt.Printf("\ntotal runtime: %v\n", total.Round(time.Millisecond))

	if *jsonPath != "" {
		rep := report{
			Scale:       *scaleName,
			Seed:        *seed,
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			CPUModel:    cpuModel(),
			Pipeline:    pipeline,
			Experiments: collector.rows,
			TotalSecs:   total.Seconds(),
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		check(err)
		check(os.WriteFile(*jsonPath, append(data, '\n'), 0o644))
		fmt.Printf("wrote %s\n", *jsonPath)
	}

	if *baselinePath != "" {
		check(compareBaseline(*baselinePath, pipeline, *maxRegress))
	}
}

// compareBaseline gates the measured pipeline numbers against an
// earlier report: throughput may not fall more than maxRegress below
// the baseline, and the allocation rate may not grow by more than one
// alloc/frame (allocs are schedule-independent, so that bound is a
// hard regression signal, not noise).
//
// Wall-clock floors only make sense against a baseline measured on the
// same machine class, so the baseline's stamped cpu_model is compared
// against this host's: on a mismatch (or a baseline without a stamp)
// the fps floors are downgraded to warnings, while the allocation
// ceiling stays a hard failure on any host.
func compareBaseline(path string, current *experiments.PipelineThroughputResult, maxRegress float64) error {
	if current == nil {
		return fmt.Errorf("-baseline needs the X3 pipeline experiment (add X3 to -only)")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if base.Pipeline == nil {
		return fmt.Errorf("baseline %s has no pipeline metrics", path)
	}
	host := cpuModel()
	sameHost := base.CPUModel != "" && base.CPUModel == host
	if !sameHost {
		fmt.Printf("bench gate: baseline host %q != this host %q — fps floors warn instead of fail\n",
			orUnknown(base.CPUModel), host)
	}
	var failures []string
	throughput := func(label string, got, want float64) {
		floor := want * (1 - maxRegress)
		status := "ok"
		if got < floor {
			if sameHost {
				status = "REGRESSION"
				failures = append(failures, label)
			} else {
				status = "WARNING (host mismatch; not gating)"
			}
		}
		fmt.Printf("bench gate: %-22s %10.0f vs baseline %10.0f (floor %10.0f)  %s\n",
			label, got, want, floor, status)
	}
	throughput("serial fps", current.SerialFPS, base.Pipeline.SerialFPS)
	throughput("parallel fps", current.ParallelFPS, base.Pipeline.ParallelFPS)
	throughput("time-domain fps", current.TimeDomainFPS, base.Pipeline.TimeDomainFPS)
	allocs := func(label string, got, want float64) {
		status := "ok"
		if got > want+1 {
			status = "REGRESSION"
			failures = append(failures, label)
		}
		fmt.Printf("bench gate: %-22s %10.2f vs baseline %10.2f (ceiling %8.2f)  %s\n",
			label, got, want, want+1, status)
	}
	allocs("allocs/frame", current.AllocsPerFrame, base.Pipeline.AllocsPerFrame)
	allocs("time-domain allocs", current.TimeDomainAllocsPerFrame, base.Pipeline.TimeDomainAllocsPerFrame)
	if base.Pipeline.Int16ReplayFPS > 0 {
		// Baselines written before the int16 path existed carry zeros
		// here; gate only against a baseline that measured it.
		throughput("int16 replay fps", current.Int16ReplayFPS, base.Pipeline.Int16ReplayFPS)
		allocs("int16 replay allocs", current.Int16ReplayAllocsPerFrame, base.Pipeline.Int16ReplayAllocsPerFrame)
	}

	// The quantization oracle is arithmetic, not scheduling: the
	// measured int16 spectrum error exceeding the analytic ADC bound is
	// a hard failure on any host.
	if current.Int16MaxError > current.Int16ErrorBound {
		fmt.Printf("bench gate: %-22s %10.3g vs bound    %10.3g  REGRESSION\n",
			"int16 error", current.Int16MaxError, current.Int16ErrorBound)
		failures = append(failures, "int16 error bound")
	} else {
		fmt.Printf("bench gate: %-22s %10.3g vs bound    %10.3g  ok\n",
			"int16 error", current.Int16MaxError, current.Int16ErrorBound)
	}

	// Replaying quantized codes skips synthesis entirely, so int16
	// replay must outrun the time-domain path; both numbers come from
	// this run on this host, making the ordering a
	// scheduling-noise-tolerant claim — but a serialized host can still
	// invert it, so it degrades to a warning there.
	if current.Int16ReplayFPS < current.TimeDomainFPS {
		if current.SerializedHost {
			fmt.Printf("bench gate: %-22s %10.0f vs td       %10.0f  WARNING (serialized host; not gating)\n",
				"int16 replay ordering", current.Int16ReplayFPS, current.TimeDomainFPS)
		} else {
			fmt.Printf("bench gate: %-22s %10.0f vs td       %10.0f  REGRESSION\n",
				"int16 replay ordering", current.Int16ReplayFPS, current.TimeDomainFPS)
			failures = append(failures, "int16 replay ordering")
		}
	} else {
		fmt.Printf("bench gate: %-22s %10.0f vs td       %10.0f  ok\n",
			"int16 replay ordering", current.Int16ReplayFPS, current.TimeDomainFPS)
	}

	// Parallel scaling: the four-worker point of the speedup curve must
	// clear its floor — but only a genuinely multicore host can fail it;
	// with one schedulable CPU the pipeline has nothing to scale onto,
	// so the check degrades to a labeled warning.
	const speedupFloor = 1.5
	for _, p := range current.SpeedupCurve {
		if p.Workers != 4 || p.GOMAXPROCS < 4 {
			continue
		}
		status := "ok"
		if p.Speedup < speedupFloor {
			if current.SerializedHost {
				status = "WARNING (serialized host; not gating)"
			} else {
				status = "REGRESSION"
				failures = append(failures, "4-worker speedup")
			}
		}
		fmt.Printf("bench gate: %-22s %10.2fx vs floor   %9.2fx  %s\n",
			"4-worker speedup", p.Speedup, speedupFloor, status)
	}
	if current.SerializedHost {
		fmt.Printf("bench gate: serialized host (1 CPU) — speedup floor not applicable\n")
	}
	if len(failures) > 0 {
		return fmt.Errorf("pipeline regression vs %s: %s", path, strings.Join(failures, ", "))
	}
	fmt.Printf("bench gate: within %.0f%% of %s\n", maxRegress*100, path)
	return nil
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

func paperFallRow(act motion.Activity) string {
	switch act {
	case motion.ActivityFall:
		return "31 / 33 detected"
	case motion.ActivitySitFloor:
		return "1 / 33 false positive"
	default:
		return "0 / 33"
	}
}

func section(title string) {
	fmt.Printf("\n== %s ==\n", title)
	collector.section = strings.Fields(title)[0]
}

func row(label, paper, measured string) {
	fmt.Printf("  %-34s paper: %-48s measured: %s\n", label, paper, measured)
	collector.rows[collector.section] = append(collector.rows[collector.section],
		reportRow{Label: label, Paper: paper, Measured: measured})
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "witrack-bench:", err)
		os.Exit(1)
	}
}
