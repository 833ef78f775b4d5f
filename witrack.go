// Package witrack is a from-scratch Go implementation of WiTrack
// ("3D Tracking via Body Radio Reflections", Adib, Kabelac, Katabi &
// Miller — NSDI 2014): 3D tracking of a human from FMCW radio
// reflections off her body, through walls, with no on-body device.
//
// The package bundles the paper's full system:
//
//   - an FMCW radio model (5.56-7.25 GHz sweep, C/2B = 8.8 cm
//     resolution) with both signal-level and fast spectral-level
//     synthesis of the baseband frames (the hardware front end is a
//     simulation substrate — see DESIGN.md for the substitution);
//   - the §4 TOF pipeline: background subtraction, bottom-contour
//     tracking, outlier rejection, interpolation, Kalman smoothing;
//   - the §5 geometric localization (ellipsoid intersection over a
//     directional T antenna array);
//   - the §6 applications: fall detection and pointing-direction
//     estimation;
//   - the room/propagation/body/motion models that stand in for the
//     paper's physical testbed, with the simulated trajectory serving as
//     the VICON ground truth.
//
// Processing runs on a staged streaming pipeline modeled on the paper's
// §7 FPGA+multicore implementation: a frame source performs the ordered
// simulation work, one worker per receive antenna does that antenna's
// synthesis math and §4 tracking concurrently, and a fusion stage
// intersects the ellipsoids (§5) and emits samples in frame order with
// bounded latency. Stream is the primary API; Run is the same pipeline
// drained to completion. For a fixed seed both produce bit-identical
// samples at any worker count.
//
// Quick start (streaming):
//
//	cfg := witrack.DefaultConfig()
//	dev, err := witrack.NewDevice(cfg)
//	if err != nil { ... }
//	walk := witrack.NewRandomWalk(witrack.DefaultWalkConfig(
//	    witrack.StandardRegion(), 0.96, 30, 1))
//	for s := range dev.Stream(context.Background(), walk) {
//	    fmt.Println(s.T, s.Pos)
//	}
//
// Or batch, with diagnostics:
//
//	result := dev.Run(walk)
//	for _, s := range result.Samples {
//	    fmt.Println(s.T, s.Pos)
//	}
package witrack

import (
	"context"
	"io"

	"witrack/internal/body"
	"witrack/internal/core"
	"witrack/internal/fall"
	"witrack/internal/fault"
	"witrack/internal/fmcw"
	"witrack/internal/geom"
	"witrack/internal/motion"
	"witrack/internal/pointing"
	"witrack/internal/rf"
	"witrack/internal/scenario"
	"witrack/internal/trace"
	"witrack/internal/track"
)

// Core geometric and configuration types.
type (
	// Vec3 is a 3D point/direction in meters; see the coordinate
	// convention on Array.
	Vec3 = geom.Vec3
	// Array is the antenna arrangement (1 Tx + >=3 Rx, beams toward +y).
	Array = geom.Array
	// RadioConfig is the FMCW radio parameter set.
	RadioConfig = fmcw.Config
	// Config assembles a full deployment (radio, array, scene, subject).
	Config = core.Config
	// Sample is one tracked 3D location with ground truth attached.
	Sample = core.Sample
	// RunResult is the full output of a tracking run.
	RunResult = core.RunResult
	// Estimate is a per-antenna round-trip distance estimate.
	Estimate = track.Estimate
	// Subject describes a human participant (height, build, RCS).
	Subject = body.Subject
	// Scene is the radio environment (walls, static reflectors).
	Scene = rf.Scene
	// Trajectory is a time-parameterized subject motion.
	Trajectory = motion.Trajectory
	// Region is a plan-view area for motion generation.
	Region = motion.Region
	// WalkConfig parameterizes free-walk workloads.
	WalkConfig = motion.WalkConfig
	// ActivityConfig parameterizes the §9.5 activity scripts.
	ActivityConfig = motion.ActivityConfig
	// Activity identifies one §9.5 activity.
	Activity = motion.Activity
	// PointingConfig parameterizes the §6.1 gesture.
	PointingConfig = motion.PointingConfig
	// FallConfig tunes the §6.2 fall detector.
	FallConfig = fall.Config
	// FallResult is the fall detector's verdict.
	FallResult = fall.Result
	// PointingResult is the estimated pointing direction.
	PointingResult = pointing.Result
	// FrameSource is the pipeline's stage-1 frame source interface (a
	// recorded trace, a hardware front end).
	FrameSource = core.FrameSource
)

// The four §9.5 activities.
const (
	ActivityWalk     = motion.ActivityWalk
	ActivitySitChair = motion.ActivitySitChair
	ActivitySitFloor = motion.ActivitySitFloor
	ActivityFall     = motion.ActivityFall
)

// Fault injection & graceful degradation: seeded, schedule-driven
// corruption of the frame stream (the failure modes real deployments
// see), with the pipeline tracking per-antenna health, solving on the
// healthy subset, and coasting through bounded outages. See the fault
// package and README "Fault injection & graceful degradation".
type (
	// FaultSchedule is a seeded set of fault windows for InjectFaults.
	FaultSchedule = fault.Schedule
	// FaultWindow schedules one fault kind over a frame interval.
	FaultWindow = fault.Window
	// FaultKind is one fault mechanism.
	FaultKind = fault.Kind
	// FaultStats counts the injections a run actually performed.
	FaultStats = fault.Stats
)

// The fault mechanisms.
const (
	// FaultDropFrame discards whole frame batches at the source.
	FaultDropFrame = fault.DropFrame
	// FaultDark silences one antenna (all-zero frames).
	FaultDark = fault.Dark
	// FaultNaN poisons a burst of bins with NaN/Inf.
	FaultNaN = fault.NaN
	// FaultSpike multiplies a band of bins by a large factor.
	FaultSpike = fault.Spike
	// FaultStuck re-delivers the antenna's previous frame.
	FaultStuck = fault.Stuck
)

// Device is a WiTrack unit tracking one person on the full pipeline:
// Run, Stream and StreamFrom track; RecordTo captures a .wtrace;
// InjectFaults, FaultStats and RunError drive chaos runs. Its run
// settings are plain fields — Workers, Pool, MonitorHealth,
// FrameDeadline, RecordSpectrograms.
type Device = core.Device

// NewDevice validates cfg and builds a device.
func NewDevice(cfg Config) (*Device, error) { return core.NewDevice(cfg) }

// Multi-person tracking: the §10 extension generalized to k concurrent
// targets. Each receive antenna extracts k time-of-flight candidates
// per frame; locate.SolveK searches the (k!)^nRx candidate-to-target
// assignments (branch-and-bound, residual RMS + capped trajectory
// continuity) and the fusion stage emits one position per subject.
type (
	// MultiSample is one k-person output frame (positions and truths in
	// subject order).
	MultiSample = core.MultiSample
	// MultiRunResult is the full output of a k-person run.
	MultiRunResult = core.MultiRunResult
)

// MultiDevice is a WiTrack unit tracking k concurrent movers. It shares
// Device's machinery and settings; Run, Stream and RecordTo take one
// trajectory per subject, and its samples are MultiSamples.
type MultiDevice = core.MultiDevice

// NewMultiDevice builds a k-person tracker: cfg.Subject is subject 0,
// the variadic others are subjects 1..k-1 (the two-person §10
// configuration is NewMultiDevice(cfg, subjectB)).
func NewMultiDevice(cfg Config, others ...Subject) (*MultiDevice, error) {
	return core.NewMultiDevice(cfg, others...)
}

// DefaultConfig returns the paper's through-wall deployment: default
// radio, 1 m T array mounted at 1.5 m, standard room, median subject.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultRadio returns the prototype radio parameters (§4.1/§7).
func DefaultRadio() RadioConfig { return fmcw.Default() }

// NewTArray builds the default "T" antenna arrangement.
func NewTArray(separation, height float64) Array {
	return geom.NewTArray(separation, height)
}

// StandardScene builds the standard evaluation room; throughWall selects
// whether the front wall stands between device and subject (§9.1).
func StandardScene(throughWall bool) *Scene { return rf.StandardScene(throughWall) }

// EmptyScene builds a scene with no walls or static reflectors — the
// uncluttered line-of-sight space the §10 multi-person extension
// assumes (each person's direct reflection individually resolvable).
func EmptyScene() *Scene { return rf.EmptyScene() }

// StandardRegion returns the standard tracked area (the VICON-focused
// 6x5 m^2 analog).
func StandardRegion() Region {
	a := rf.StandardArea()
	return Region{XMin: a.XMin, XMax: a.XMax, YMin: a.YMin, YMax: a.YMax}
}

// DefaultSubject returns a median adult subject.
func DefaultSubject() Subject { return body.DefaultSubject() }

// SubjectPanel returns n distinct subjects spanning the paper's
// demographic spread (§8(c)).
func SubjectPanel(n int, seed int64) []Subject { return body.Panel(n, seed) }

// NewRandomWalk builds a free "move at will" trajectory (§9.1 workload).
func NewRandomWalk(cfg WalkConfig) Trajectory { return motion.NewRandomWalk(cfg) }

// DefaultWalkConfig returns the standard free-walk parameters.
func DefaultWalkConfig(region Region, centerHeight, duration float64, seed int64) WalkConfig {
	return motion.DefaultWalkConfig(region, centerHeight, duration, seed)
}

// NewActivityScript builds a §9.5 activity trajectory.
func NewActivityScript(cfg ActivityConfig) Trajectory { return motion.NewActivityScript(cfg) }

// NewPointingScript builds a §6.1 pointing-gesture trajectory. The
// returned concrete type exposes the ground-truth direction.
func NewPointingScript(cfg PointingConfig) *motion.PointingScript {
	return motion.NewPointingScript(cfg)
}

// DefaultFallConfig returns the §6.2 fall detector thresholds.
func DefaultFallConfig() FallConfig { return fall.DefaultConfig() }

// DetectFall classifies an elevation time series (§6.2): a fall requires
// a >1/3 elevation drop ending near the ground within a short window.
func DetectFall(cfg FallConfig, ts, zs []float64) (FallResult, error) {
	return fall.Detect(cfg, ts, zs)
}

// EstimatePointing extracts a pointing direction from a tracking run
// covering one §6.1 gesture (lift, hold, drop).
func EstimatePointing(array Array, frameInterval float64, run *RunResult) (PointingResult, error) {
	est := pointing.New(array, pointing.DefaultConfig(frameInterval))
	return est.Analyze(run.PerAntenna)
}

// PointingAngleError returns the angle (degrees) between two directions.
func PointingAngleError(estimate, truth Vec3) float64 {
	return pointing.AngleError(estimate, truth)
}

// CompensateSurfaceDepth maps a tracked surface point back toward the
// body center before comparing with ground truth (§8(a)).
func CompensateSurfaceDepth(estimate, devicePos Vec3, depth float64) Vec3 {
	return body.CompensateSurfaceDepth(estimate, devicePos, depth)
}

// Scenario system: declarative workload specs (environment, bodies,
// device placements, expected-metric assertions) executed as a matrix
// on the streaming pipeline. See cmd/witrack-scenarios for the CLI.
type (
	// Scenario is one declarative workload spec (JSON round-trippable).
	Scenario = scenario.Spec
	// ScenarioBody is one tracked subject with its motion.
	ScenarioBody = scenario.BodySpec
	// ScenarioMotion is a body's motion description.
	ScenarioMotion = scenario.MotionSpec
	// ScenarioDevice is one device placement in a scenario's fleet.
	ScenarioDevice = scenario.DeviceSpec
	// ScenarioFault is a scenario's chaos plan: a seeded fault schedule
	// authored in seconds, compiled to frame indexes per cell.
	ScenarioFault = scenario.FaultSpec
	// ScenarioFaultWindow is one window of a scenario's chaos plan.
	ScenarioFaultWindow = scenario.FaultWindow
	// ScenarioOptions tunes the fleet runner.
	ScenarioOptions = scenario.Options
	// ScenarioReport is the matrix outcome (the SCENARIOS.json shape).
	ScenarioReport = scenario.Report
	// CompiledScenario is a scenario × device cell compiled to a device
	// configuration plus trajectories.
	CompiledScenario = scenario.Compiled
)

// NewScenario starts a scenario spec (builder-style; see the scenario
// package for the chainable methods).
func NewScenario(name, description string) *Scenario {
	return scenario.New(name, description)
}

// CanonicalScenarios returns the checked-in scenario matrix CI gates on.
func CanonicalScenarios() []Scenario { return scenario.Canonical() }

// RunScenarios executes a scenario matrix (N scenarios × M devices)
// concurrently on the streaming pipeline and aggregates paper-style
// metrics plus assertion verdicts.
func RunScenarios(ctx context.Context, specs []Scenario, opts ScenarioOptions) (*ScenarioReport, error) {
	return scenario.Run(ctx, specs, opts)
}

// CompileScenario assembles one scenario × device cell into a device
// configuration and trajectories, for callers that want to drive the
// run themselves (see examples/falldetect, examples/pointing).
func CompileScenario(sp *Scenario, deviceIndex int) (*CompiledScenario, error) {
	return scenario.Compile(sp, deviceIndex)
}

// Record & replay: the .wtrace on-disk trace format (versioned,
// compressed, CRC-guarded) plus the scenario-level capture/replay
// hooks. See cmd/witrack-record and cmd/witrack-replay for the CLIs
// and README "Record & replay" for the corpus workflow.
type (
	// TraceHeader is the self-describing .wtrace metadata (radio, array,
	// seed, frame clock, scenario provenance).
	TraceHeader = trace.Header
	// TraceWriter streams frames into a .wtrace container.
	TraceWriter = trace.Writer
	// TraceReader streams frames out of a .wtrace container.
	TraceReader = trace.Reader
	// TraceSource adapts a TraceReader into a pipeline FrameSource for
	// Device.StreamFrom.
	TraceSource = core.TraceSource
	// WorkerPool bounds concurrent heavy compute across any number of
	// devices sharing it (the multi-session daemon's throttle); see
	// Device.Pool.
	WorkerPool = core.WorkerPool
	// FrameArena is a shared recycling arena for decoded frame batches,
	// letting many sequential or concurrent trace replays reuse one
	// buffer pool; see NewTraceSourceArena.
	FrameArena = core.FrameArena
	// ScenarioReplayResult is one replayed trace's scored outcome.
	ScenarioReplayResult = scenario.ReplayResult
	// ScenarioReplayReport is the multi-trace replay outcome (the
	// CORPUS.json shape).
	ScenarioReplayReport = scenario.ReplayReport
	// ScenarioReplayOptions tunes trace replay (recover mode).
	ScenarioReplayOptions = scenario.ReplayOptions
)

// NewTraceWriter opens a .wtrace stream over w.
func NewTraceWriter(w io.Writer, h TraceHeader) (*TraceWriter, error) {
	return trace.NewWriter(w, h)
}

// NewTraceReader opens a .wtrace stream over r, validating the magic,
// version, and header.
func NewTraceReader(r io.Reader) (*TraceReader, error) { return trace.NewReader(r) }

// NewTraceSource wraps an opened trace reader as a FrameSource; check
// its Err after the stream drains to distinguish a clean end of trace
// from corruption.
func NewTraceSource(r *TraceReader) *TraceSource { return core.NewTraceSource(r) }

// NewTraceSourceArena is NewTraceSource recycling decoded batches
// through a shared FrameArena instead of a private ring (nil arena
// falls back to a private ring).
func NewTraceSourceArena(r *TraceReader, a *FrameArena) *TraceSource {
	return core.NewTraceSourceArena(r, a)
}

// NewWorkerPool builds a pool with n compute slots (n < 1 is clamped
// to 1). Set it as the Pool of several devices to bound their combined
// CPU footprint; output streams are unchanged.
func NewWorkerPool(n int) *WorkerPool { return core.NewWorkerPool(n) }

// NewFrameArena builds a shared decoded-frame arena retaining at most
// capacity batches (capacity <= 0 selects a daemon-sized default).
func NewFrameArena(capacity int) *FrameArena { return core.NewFrameArena(capacity) }

// CorpusScenarios returns the compact scenario set behind the
// checked-in golden trace corpus.
func CorpusScenarios() []Scenario { return scenario.Corpus() }

// RecordScenarioCell captures one scenario × device cell into w as a
// .wtrace with the spec embedded as provenance; ReplayScenarioTrace
// reproduces the live cell's metrics from it bit-identically.
func RecordScenarioCell(sp *Scenario, deviceIndex int, w io.Writer) (int, error) {
	n, _, err := scenario.RecordCell(sp, deviceIndex, w)
	return n, err
}

// ReplayScenarioTrace streams a recorded cell back through the pipeline
// and scores it exactly like a live scenario cell — without paying
// synthesis cost.
func ReplayScenarioTrace(ctx context.Context, r io.Reader) (*ScenarioReplayResult, error) {
	return scenario.ReplayTrace(ctx, r)
}

// ReplayScenarioTraceOpts is ReplayScenarioTrace with explicit options
// — notably Recover, which resynchronizes past CRC-damaged records and
// reports the skip count instead of aborting.
func ReplayScenarioTraceOpts(ctx context.Context, r io.Reader, opts ScenarioReplayOptions) (*ScenarioReplayResult, error) {
	return scenario.ReplayTraceOpts(ctx, r, opts)
}
