// Package experiments reproduces every table and figure of the paper's
// evaluation (§8-§9) plus the ablations and §10 extensions that
// cmd/witrack-bench runs as rows A1-A3 and X1-X2. Each
// experiment is a pure function of a Scale (how much workload to run)
// and a seed, and returns a structured result that cmd/witrack-bench
// renders as paper-style rows and bench_test.go asserts against.
//
// The workloads themselves are declarative scenario specs: every
// tracking run is assembled by the scenario compiler, and the protocol
// experiments (§9.4 pointing, §9.5 fall study) delegate to the
// scenario package's protocol runners. The experiment functions are
// thin wrappers that sweep spec parameters and summarize the samples.
package experiments

import (
	"fmt"
	"math"

	"witrack/internal/body"
	"witrack/internal/core"
	"witrack/internal/dsp"
	"witrack/internal/geom"
	"witrack/internal/motion"
	"witrack/internal/scenario"
)

// Scale controls experiment workload size.
type Scale struct {
	// Runs is the number of independent tracking experiments.
	Runs int
	// Duration is seconds of motion per run.
	Duration float64
	// Gestures is the number of pointing gestures.
	Gestures int
	// ActivityReps is the repetitions per activity in the fall study.
	ActivityReps int
}

// PaperScale matches the paper's workloads: 100 one-minute experiments
// (§9.1-§9.3), ~100 pointing gestures (§9.4), 33 repetitions per
// activity (§9.5).
func PaperScale() Scale {
	return Scale{Runs: 100, Duration: 60, Gestures: 100, ActivityReps: 33}
}

// QuickScale is a reduced workload for test suites and benches.
func QuickScale() Scale {
	return Scale{Runs: 8, Duration: 20, Gestures: 16, ActivityReps: 6}
}

// Region returns the standard tracked area as a motion region (the
// scenario compiler's definition; one source of truth for workloads).
func Region() motion.Region { return scenario.Region() }

// AxisErrors accumulates per-axis absolute localization errors.
type AxisErrors struct {
	X, Y, Z []float64
}

// Add appends one error triple.
func (a *AxisErrors) Add(dx, dy, dz float64) {
	a.X = append(a.X, math.Abs(dx))
	a.Y = append(a.Y, math.Abs(dy))
	a.Z = append(a.Z, math.Abs(dz))
}

// Medians returns the per-axis median errors.
func (a *AxisErrors) Medians() (x, y, z float64) {
	return median(a.X), median(a.Y), median(a.Z)
}

// P90s returns the per-axis 90th-percentile errors.
func (a *AxisErrors) P90s() (x, y, z float64) {
	return percentile(a.X, 90), percentile(a.Y, 90), percentile(a.Z, 90)
}

// N returns the number of samples.
func (a *AxisErrors) N() int { return len(a.X) }

func median(xs []float64) float64 {
	return dsp.Median(append([]float64(nil), xs...))
}

func percentile(xs []float64, p float64) float64 {
	return dsp.Percentile(append([]float64(nil), xs...), p)
}

// walkSpec assembles the one-walk-run scenario all accuracy
// experiments share: panel subject number run walking for duration
// seconds, simulation seeded with devSeed, motion with walkSeed.
func walkSpec(name string, devSeed int64, run int, panelSeed int64,
	duration float64, walkSeed int64) *scenario.Spec {
	return scenario.New(name, "").
		Seeded(devSeed).
		Body(scenario.BodySpec{
			Subject: scenario.SubjectSpec{PanelSize: 11, PanelSeed: panelSeed, PanelIndex: run},
			Motion:  scenario.MotionSpec{Kind: scenario.MotionWalk, Duration: duration, Seed: walkSeed},
		})
}

// runTracking compiles one tracking scenario (device 0), executes it,
// and feeds per-sample errors (and the subject-device distance) to the
// sink.
func runTracking(sp *scenario.Spec, sink func(s core.Sample, est geom.Vec3, dist float64)) error {
	c, err := scenario.Compile(sp, 0)
	if err != nil {
		return err
	}
	dev, err := core.NewDevice(c.Config)
	if err != nil {
		return err
	}
	res := dev.Run(c.Trajectories[0])
	for _, s := range res.Samples {
		if !s.Valid || s.T < 2 {
			continue
		}
		est := body.CompensateSurfaceDepth(s.Pos, c.Config.Array.Tx, c.Config.Subject.SurfaceDepth)
		sink(s, est, s.Truth.Dist(c.Config.Array.Tx))
	}
	return nil
}

// FormatCDF renders an empirical CDF as "value:fraction" pairs at the
// given percentile grid, for text output.
func FormatCDF(errs []float64, percentiles []float64) string {
	out := ""
	for i, p := range percentiles {
		if i > 0 {
			out += "  "
		}
		out += fmt.Sprintf("p%.0f=%.1fcm", p, percentile(errs, p)*100)
	}
	return out
}
