// Command witrack-bench regenerates every table and figure of the
// paper's evaluation (§8-§9) and prints paper-vs-measured rows. At
// -scale paper the workloads match the paper's (100 one-minute runs per
// accuracy figure, 132 fall experiments, ~100 gestures); -scale quick
// runs a reduced version in about a minute, and -scale mid sits between
// the two.
//
// Usage:
//
//	witrack-bench [-scale quick|mid|paper] [-only E4,E7,...] [-seed 1] [-json report.json]
//
// -only takes a comma-separated list of experiment ids (E1-E12, A1-A3,
// X1-X2), case-insensitive; an unknown id exits with status 2 and names
// the valid ones. With -json every printed row is also written to the
// given path as JSON, grouped by experiment id.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
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
	Scale       string                 `json:"scale"`
	Seed        int64                  `json:"seed"`
	GeneratedAt string                 `json:"generated_at"`
	GoMaxProcs  int                    `json:"gomaxprocs"`
	Experiments map[string][]reportRow `json:"experiments"`
	TotalSecs   float64                `json:"total_seconds"`
}

// collector accumulates rows under the current section for -json output.
var collector = struct {
	section string
	rows    map[string][]reportRow
}{rows: map[string][]reportRow{}}

// experiment is one section of the evaluation: its -only id, the title
// its header prints, and the run that prints its rows.
type experiment struct {
	id, title string
	run       func(sc experiments.Scale, seed int64)
}

// evaluation lists every experiment in print order. It is the one place
// the ids live: -only is checked against it.
var evaluation = []experiment{
	{"E1", "FMCW resolution (Eq. 3)", func(sc experiments.Scale, seed int64) {
		r, err := experiments.Resolution(seed)
		check(err)
		row("one-way resolution", "8.8 cm", fmt.Sprintf("%.1f cm theory, %.1f cm measured two-tone", r.TheoreticalResolution*100, r.MeasuredSeparability*100))
	}},
	{"E2", "Fig.3 spectrogram pipeline", func(sc experiments.Scale, seed int64) {
		sr, err := experiments.SpectrogramDemo(seed)
		check(err)
		before, after := experiments.StaticStripePersistence(sr)
		row("static-stripe energy fraction", "dominant before, gone after subtraction",
			fmt.Sprintf("%.2f raw -> %.3f subtracted", before, after))
		row("frames", "-", fmt.Sprintf("%d frames, %d range bins", len(sr.Raw.Frames), len(sr.Raw.Frames[0])))
	}},
	{"E3", "Fig.8(a) line-of-sight 3D accuracy", func(sc experiments.Scale, seed int64) {
		r, err := experiments.Accuracy3D(false, sc, seed)
		check(err)
		x, y, z := r.Errors.Medians()
		px, py, pz := r.Errors.P90s()
		row("median x/y/z", "9.9 / 8.6 / 17.7 cm", fmt.Sprintf("%.1f / %.1f / %.1f cm", x*100, y*100, z*100))
		row("90th pct x/y/z", "-", fmt.Sprintf("%.1f / %.1f / %.1f cm", px*100, py*100, pz*100))
		row("samples", "~480,000", fmt.Sprintf("%d", r.Samples))
	}},
	{"E4", "Fig.8(b) through-wall 3D accuracy", func(sc experiments.Scale, seed int64) {
		r, err := experiments.Accuracy3D(true, sc, seed)
		check(err)
		x, y, z := r.Errors.Medians()
		px, py, pz := r.Errors.P90s()
		row("median x/y/z", "13.1 / 10.25 / 21.0 cm", fmt.Sprintf("%.1f / %.1f / %.1f cm", x*100, y*100, z*100))
		row("90th pct x/y/z", "<= ~1ft / ~1ft / ~2ft", fmt.Sprintf("%.1f / %.1f / %.1f cm", px*100, py*100, pz*100))
		row("samples", "~480,000", fmt.Sprintf("%d", r.Samples))
	}},
	{"E5", "Fig.9 accuracy vs distance (through-wall)", func(sc experiments.Scale, seed int64) {
		bins, err := experiments.AccuracyVsDistance(sc, seed)
		check(err)
		for _, b := range bins {
			x, y, z := b.Errors.Medians()
			px, py, pz := b.Errors.P90s()
			row(fmt.Sprintf("%d m median (p90)", b.Meters), "grows 5-10 cm from 3 m to 11 m",
				fmt.Sprintf("x %.0f (%.0f), y %.0f (%.0f), z %.0f (%.0f) cm", x*100, px*100, y*100, py*100, z*100, pz*100))
		}
	}},
	{"E6", "Fig.10 accuracy vs antenna separation", func(sc experiments.Scale, seed int64) {
		pts, err := experiments.AccuracyVsSeparation([]float64{0.25, 0.5, 1.0, 1.5, 2.0}, sc, seed)
		check(err)
		for _, p := range pts {
			x, y, z := p.Errors.Medians()
			row(fmt.Sprintf("separation %.2f m", p.Separation),
				"@25cm medians <=17/12/31 cm; error shrinks with separation",
				fmt.Sprintf("x %.1f, y %.1f, z %.1f cm", x*100, y*100, z*100))
		}
	}},
	{"E7", "Fig.11 pointing-direction accuracy", func(sc experiments.Scale, seed int64) {
		r, err := experiments.Pointing(sc, seed)
		check(err)
		row("median / 90th pct", "11.2 / 37.9 deg", fmt.Sprintf("%.1f / %.1f deg (%d/%d gestures analyzed)",
			r.Median(), r.P90(), r.Analyzed, r.Attempted))
	}},
	{"E8", "Fig.5 arm vs whole-body contrast", func(sc experiments.Scale, seed int64) {
		gc, err := experiments.GestureDemo(seed)
		check(err)
		row("reflected power ratio body/arm", ">> 1 (arm reflection surface much smaller)",
			fmt.Sprintf("%.1fx", gc.BodyPower/gc.ArmPower))
		row("spatial spread body vs arm", "body variance >> arm variance",
			fmt.Sprintf("%.2f m vs %.2f m", gc.BodySpread, gc.ArmSpread))
	}},
	{"E9", "Fig.6 elevation traces", func(sc experiments.Scale, seed int64) {
		traces, err := experiments.ElevationTraces(seed)
		check(err)
		for _, tr := range traces {
			if len(tr.Z) == 0 {
				continue
			}
			final := tr.Z[len(tr.Z)-1]
			truth := tr.TruthZ[len(tr.TruthZ)-1]
			row(tr.Activity.String(), "walk/chair end high; floor-sit and fall end near ground",
				fmt.Sprintf("final z %.2f m (truth %.2f m)", final, truth))
		}
	}},
	{"E10", "§9.5 fall detection", func(sc experiments.Scale, seed int64) {
		r, err := experiments.FallStudy(sc, seed)
		check(err)
		for _, act := range motion.Activities() {
			row("classified as fall: "+act.String(), paperFallRow(act),
				fmt.Sprintf("%d / %d", r.Detected[act], r.Total[act]))
		}
		row("precision / recall / F", "96.9% / 93.9% / 94.4%",
			fmt.Sprintf("%.1f%% / %.1f%% / %.1f%%", r.Precision*100, r.Recall*100, r.FMeasure*100))
	}},
	{"E11", "§7 real-time latency", func(sc experiments.Scale, seed int64) {
		r, err := experiments.Latency(seed)
		check(err)
		row("processing per 3D output", "< 75 ms", fmt.Sprintf("%v (%.0f frames/s possible)", r.PerFrame, r.FramesPerSec))
	}},
	{"E12", "§2 2D accuracy vs radio tomography", func(sc experiments.Scale, seed int64) {
		r, err := experiments.VsRTI(sc, seed)
		check(err)
		row("median 2D error", ">= 5x better than RTI", fmt.Sprintf("WiTrack %.2f m vs RTI %.2f m (%.1fx)",
			r.WiTrackMedian2D, r.RTIMedian2D, r.Ratio))
	}},
	{"A1", "ablation: contour vs strongest peak (§4.3)", func(sc experiments.Scale, seed int64) {
		r, err := experiments.AblationContourVsPeak(sc, seed)
		check(err)
		row("median 3D error", "contour more robust than dominant-frequency tracking",
			fmt.Sprintf("contour %.2f m vs strongest %.2f m", r.ContourMedian3D, r.StrongestMedian3D))
	}},
	{"A2", "ablation: §4.4 denoising stages", func(sc experiments.Scale, seed int64) {
		r, err := experiments.AblationDenoising(sc, seed)
		check(err)
		row("median 3D error", "-", fmt.Sprintf("full %.2f m; no-Kalman %.2f m; loose gate %.2f m",
			r.FullMedian3D, r.NoKalmanMedian3D, r.LooseGateMedian3D))
	}},
	{"A3", "ablation: 3 vs 4 receive antennas (§5)", func(sc experiments.Scale, seed int64) {
		r, err := experiments.AblationExtraAntennas(sc, seed)
		check(err)
		row("median 3D error", "extra antennas add robustness",
			fmt.Sprintf("3 Rx %.2f m vs 4 Rx %.2f m", r.ThreeRxMedian3D, r.FourRxMedian3D))
	}},
	{"X1", "§10 extension: static user via background calibration", func(sc experiments.Scale, seed int64) {
		r, err := experiments.StaticUser(seed)
		check(err)
		row("valid-fix fraction", "0 without calibration (the stated limitation)",
			fmt.Sprintf("%.2f uncalibrated vs %.2f calibrated (median err %.2f m)",
				r.ValidFracUncalibrated, r.ValidFracCalibrated, r.MedianErrCalibrated))
	}},
	{"X2", "§10 extension: two concurrent people", func(sc experiments.Scale, seed int64) {
		r, err := experiments.TwoPerson(sc.Duration, seed+17)
		check(err)
		row("per-person median 2D error", "proposed, not evaluated in the paper",
			fmt.Sprintf("%.2f m (%.0f%% frames with a joint fix; run-to-run variance is high — see EXPERIMENTS.md)", r.MedianErr2D, r.ValidFrac*100))
	}},
}

// parseOnly turns an -only list into the set of experiment ids to run;
// an empty list selects every experiment. Ids are matched
// case-insensitively after trimming spaces, and any id that names no
// experiment is an error that lists the valid ones.
func parseOnly(list string) (map[string]bool, error) {
	want := map[string]bool{}
	if list == "" {
		for _, e := range evaluation {
			want[e.id] = true
		}
		return want, nil
	}
	var unknown []string
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(id)
		upper := strings.ToUpper(id)
		if !slices.ContainsFunc(evaluation, func(e experiment) bool { return e.id == upper }) {
			unknown = append(unknown, fmt.Sprintf("%q", id))
			continue
		}
		want[upper] = true
	}
	if len(unknown) > 0 {
		ids := make([]string, len(evaluation))
		for i, e := range evaluation {
			ids[i] = e.id
		}
		return nil, fmt.Errorf("unknown experiment id(s) in -only: %s (valid: %s)",
			strings.Join(unknown, ", "), strings.Join(ids, ", "))
	}
	return want, nil
}

func main() {
	scaleName := flag.String("scale", "quick", "workload scale: quick, mid, or paper")
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	seed := flag.Int64("seed", 1, "base seed")
	jsonPath := flag.String("json", "", "also write every row to this path as JSON")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "witrack-bench: unexpected arguments: %v\n", flag.Args())
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

	want, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "witrack-bench:", err)
		os.Exit(2)
	}

	fmt.Printf("WiTrack evaluation harness — scale=%s seed=%d\n", *scaleName, *seed)
	fmt.Printf("(paper numbers from MIT-CSAIL-TR-2013-030 / NSDI'14)\n\n")
	start := time.Now()

	for _, e := range evaluation {
		if want[e.id] {
			section(e.id, e.title)
			e.run(sc, *seed)
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
			Experiments: collector.rows,
			TotalSecs:   total.Seconds(),
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		check(err)
		check(os.WriteFile(*jsonPath, append(data, '\n'), 0o644))
		fmt.Printf("wrote %s\n", *jsonPath)
	}
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

func section(id, title string) {
	fmt.Printf("\n== %-3s %s ==\n", id, title)
	collector.section = id
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
