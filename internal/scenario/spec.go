// Package scenario turns the paper's evaluation workloads into data: a
// declarative spec describes the environment (room geometry, wall
// attenuation, clutter), the bodies and their motion (trajectory
// segments, falls, pointing gestures, static presence), the device
// placements, and the expected-metric assertions — and a fleet runner
// executes a matrix of N scenarios × M devices concurrently on the
// existing streaming pipeline, aggregating paper-style metrics
// (median/90th-percentile localization error per axis, fall-detection
// precision/recall, pointing angle error, frames/sec per device).
//
// Specs round-trip through JSON, so new workloads are files, not code;
// cmd/witrack-scenarios runs the canonical matrix and CI gates on its
// assertions. Fixed seeds make every metric bit-reproducible: the same
// spec produces the same SCENARIOS.json on every run.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"witrack/internal/fault"
)

// Spec is one declarative scenario: an environment, one or two bodies
// with their motion, a set of device placements, and the metric
// assertions the scenario is expected to satisfy.
type Spec struct {
	// Name identifies the scenario in reports and -only filters.
	Name string `json:"name"`
	// Description is a one-line human summary.
	Description string `json:"description,omitempty"`
	// Seed drives all simulation randomness. Each device cell derives
	// its own seed deterministically from it (see Runner).
	Seed int64 `json:"seed"`
	// Env is the radio environment.
	Env Environment `json:"env"`
	// Devices lists the device placements the scenario runs on. Empty
	// means one default device.
	Devices []DeviceSpec `json:"devices,omitempty"`
	// Bodies lists the tracked subjects: 1 for single-person scenarios,
	// 2..MaxBodies for concurrent k-person tracking. Protocol motions
	// (fall-study, pointing-study) require exactly one body.
	Bodies []BodySpec `json:"bodies"`
	// Reps is the repetition count for protocol motions (fall-study
	// repetitions per activity, pointing-study gesture count). Zero
	// means the protocol default.
	Reps int `json:"reps,omitempty"`
	// Fault, when non-nil, runs the scenario under deterministic fault
	// injection (chaos scenarios): the schedule is compiled to frame
	// indexes and installed on every device cell, and the robustness
	// metrics (fault_*, degraded_fix_frac, outage_*, reacquire_*) join
	// the assertable vocabulary. Tracking cells only — protocol motions
	// (fall-study, pointing-study) run many independent sub-trajectories
	// that a single frame-indexed schedule cannot meaningfully cover.
	Fault *FaultSpec `json:"fault,omitempty"`
	// Expect lists the metric assertions CI gates on.
	Expect []Assertion `json:"expect,omitempty"`
}

// FaultSpec is the serializable fault-injection plan of a chaos
// scenario. Windows are authored in seconds (specs think in time) and
// compiled to frame indexes at the cell's frame rate.
type FaultSpec struct {
	// Seed drives every probabilistic firing decision. Independent of
	// the simulation seed, so the same chaos plan can ride on any cell.
	Seed int64 `json:"seed,omitempty"`
	// Windows lists the scheduled faults; first firing window wins per
	// (frame, antenna).
	Windows []FaultWindow `json:"windows"`
}

// FaultWindow schedules one fault mechanism over a time interval.
type FaultWindow struct {
	// Kind is the fault mechanism: "drop-frame", "dark", "nan",
	// "spike", or "stuck" (fault.ParseKind's vocabulary).
	Kind string `json:"kind"`
	// Antenna is the receive antenna struck; -1 strikes all. Ignored
	// for drop-frame.
	Antenna int `json:"antenna,omitempty"`
	// StartS is the window start in seconds from the run start.
	StartS float64 `json:"start_s,omitempty"`
	// DurationS is the window length in seconds; <= 0 means permanent.
	DurationS float64 `json:"duration_s,omitempty"`
	// Prob is the per-frame firing probability; <= 0 or >= 1 fires on
	// every frame of the window.
	Prob float64 `json:"prob,omitempty"`
}

// Environment describes the radio scene.
type Environment struct {
	// Room selects the base geometry: "standard" (default) is the
	// paper's §9.1 test room, "empty" has no walls or furniture.
	Room string `json:"room,omitempty"`
	// ThroughWall puts the front wall between device and subject
	// (standard room only).
	ThroughWall bool `json:"through_wall,omitempty"`
	// Clutter adds extra static point reflectors (furniture) on top of
	// the room's own.
	Clutter []Clutter `json:"clutter,omitempty"`
}

// Clutter is one extra static reflector.
type Clutter struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z"`
	// RCS is the radar cross section in m^2.
	RCS float64 `json:"rcs"`
}

// DeviceSpec is one device placement in the scenario's fleet.
type DeviceSpec struct {
	// Separation is the T-array arm length in meters (default 1.0).
	Separation float64 `json:"separation,omitempty"`
	// Height is the array mounting height in meters (default 1.5).
	Height float64 `json:"height,omitempty"`
	// ExtraTopRx adds a fourth receive antenna above the Tx, completing
	// a "+" (the §5 robustness extension).
	ExtraTopRx bool `json:"extra_top_rx,omitempty"`
	// Workers is the per-antenna pipeline worker count (0 = one per
	// antenna).
	Workers int `json:"workers,omitempty"`
	// SlowSynth switches to the full time-domain synthesis path.
	SlowSynth bool `json:"slow_synth,omitempty"`
	// SeedOffset shifts the device's simulation seed relative to the
	// spec seed (on top of the per-device-index stride).
	SeedOffset int64 `json:"seed_offset,omitempty"`
	// CalibrateFrames, when positive, records the empty room for that
	// many frames and installs the averaged profile as the background
	// (the §10 static-user extension).
	CalibrateFrames int `json:"calibrate_frames,omitempty"`
	// Tracker optionally overrides tracker knobs (ablations).
	Tracker TrackerSpec `json:"tracker,omitempty"`
	// Radio optionally overrides sweep parameters (compact-corpus and
	// ablation scenarios).
	Radio RadioSpec `json:"radio,omitempty"`
}

// RadioSpec is the serializable subset of FMCW overrides scenarios may
// apply on top of the paper's default radio. Zero fields keep defaults.
type RadioSpec struct {
	// MaxRange caps the round-trip distance of interest in meters,
	// bounding the FFT bins kept per frame (default 30). Compact trace
	// corpora shrink it to cut the per-frame payload.
	MaxRange float64 `json:"max_range,omitempty"`
	// SweepsPerFrame is how many consecutive sweeps average into one
	// frame (default 5 = 80 frames/s); larger values trade frame rate
	// for per-second trace size.
	SweepsPerFrame int `json:"sweeps_per_frame,omitempty"`
	// SampleRate overrides the ADC rate in Hz (default 1 MHz). Compact
	// sweep-domain cells shrink it so a raw sweep stays small.
	SampleRate float64 `json:"sample_rate,omitempty"`
	// SweepTime overrides the sweep duration in seconds (default
	// 2.5 ms). SampleRate × SweepTime sets the samples per sweep.
	SweepTime float64 `json:"sweep_time,omitempty"`
	// ADCBits models the converter resolution (12, 14, or 16): the
	// time-domain sweeps are quantized to signed ADC codes at the
	// source and the pipeline sums them exactly and dequantizes each
	// frame's sum once. Requires a SlowSynth device (the fast
	// path never materializes samples to digitize). Zero keeps the
	// ideal float64 front end.
	ADCBits int `json:"adc_bits,omitempty"`
}

// TrackerSpec is the serializable subset of tracker overrides the
// ablation scenarios need.
type TrackerSpec struct {
	// Mode is "", "contour", or "strongest".
	Mode string `json:"mode,omitempty"`
	// KalmanQ, when non-nil, overrides the Kalman process noise.
	KalmanQ *float64 `json:"kalman_q,omitempty"`
	// MaxJump, when non-nil, overrides the outlier gate.
	MaxJump *float64 `json:"max_jump,omitempty"`
}

// IsZero reports whether no override is set.
func (t TrackerSpec) IsZero() bool {
	return t.Mode == "" && t.KalmanQ == nil && t.MaxJump == nil
}

// BodySpec is one tracked subject.
type BodySpec struct {
	Subject SubjectSpec `json:"subject,omitempty"`
	Motion  MotionSpec  `json:"motion"`
}

// SubjectSpec selects a subject. The zero value is the median default
// subject; a non-zero PanelSize draws from the demographic panel.
type SubjectSpec struct {
	// PanelSize is the panel to draw from (the experiments use 11).
	PanelSize int `json:"panel_size,omitempty"`
	// PanelSeed seeds the panel generation.
	PanelSeed int64 `json:"panel_seed,omitempty"`
	// PanelIndex picks the member (wraps modulo PanelSize).
	PanelIndex int `json:"panel_index,omitempty"`
}

// Motion kinds.
const (
	// MotionWalk is a free "move at will" random walk (§9.1 workload).
	MotionWalk = "walk"
	// MotionStatic is a motionless person at a fixed spot (§10).
	MotionStatic = "static"
	// MotionActivity is one §9.5 activity script (walk, sit-chair,
	// sit-floor, fall).
	MotionActivity = "activity"
	// MotionPointing is one §6.1 pointing gesture.
	MotionPointing = "pointing"
	// MotionFallStudy is the full §9.5 protocol: Reps repetitions of
	// each of the four activities, classified by the fall detector,
	// yielding precision/recall/F.
	MotionFallStudy = "fall-study"
	// MotionPointingStudy is the §9.4 protocol: Reps gestures at varied
	// positions and directions, yielding the angle-error distribution.
	MotionPointingStudy = "pointing-study"
)

// MotionSpec describes one body's motion as a tagged record; which
// fields apply depends on Kind.
type MotionSpec struct {
	Kind string `json:"kind"`
	// Duration in seconds (walk, static).
	Duration float64 `json:"duration,omitempty"`
	// Seed drives the motion's randomness (absolute, not derived from
	// the spec seed: the same trajectory replays on every device).
	Seed int64 `json:"seed,omitempty"`
	// X, Y is the standing spot (static, pointing).
	X float64 `json:"x,omitempty"`
	Y float64 `json:"y,omitempty"`
	// Activity is the §9.5 script name (activity).
	Activity string `json:"activity,omitempty"`
	// AzimuthDeg/ElevationDeg aim the gesture (pointing).
	AzimuthDeg   float64 `json:"azimuth_deg,omitempty"`
	ElevationDeg float64 `json:"elevation_deg,omitempty"`
	// Region confines the motion to a sub-area instead of the standard
	// tracked area (walk, activity) — two-person scenarios keep their
	// walkers in separate bands this way.
	Region *RegionSpec `json:"region,omitempty"`
}

// RegionSpec is a plan-view axis-aligned area.
type RegionSpec struct {
	XMin float64 `json:"x_min"`
	XMax float64 `json:"x_max"`
	YMin float64 `json:"y_min"`
	YMax float64 `json:"y_max"`
}

// Assertion is one expected-metric gate: Metric Op Value, evaluated
// against the scenario's aggregate metrics.
type Assertion struct {
	// Metric is a metrics-map key (see metrics.go for the vocabulary).
	Metric string `json:"metric"`
	// Op is "<=" or ">=".
	Op string `json:"op"`
	// Value is the bound.
	Value float64 `json:"value"`
}

// protocol reports whether the kind is a multi-run protocol rather than
// a single trajectory.
func protocol(kind string) bool {
	return kind == MotionFallStudy || kind == MotionPointingStudy
}

// MaxBodies caps concurrent tracked subjects per scenario. The k-target
// fusion enumerates (k!)^nRx joint TOF assignments per frame, so the
// cap keeps the worst canonical deployment (4 receive antennas) at
// (4!)^4 ≈ 332k assignments — branch-and-bound prunes most of them,
// but the ceiling keeps a misauthored spec from going combinatorial.
const MaxBodies = 4

// MaxMotionDuration caps a walk's or a static body's duration at one
// hour, 60 times the longest run in the repo (60 s at paper scale). A
// walk builds its segments for the whole duration before the first
// frame, and a replayed trace names its own scenario, so the cap keeps a
// forged provenance from allocating without bound.
const MaxMotionDuration = 3600.0

// MaxCalibrateFrames caps a device's empty-room calibration at 1,000
// frames: 12.5 s at 80 frames/s, 25 times the repo's 40. Calibration
// synthesizes every frame before the first tracked one, and a replayed
// trace names its own count, so the cap keeps a forged provenance from
// holding a session in set-up without bound.
const MaxCalibrateFrames = 1000

// Validate checks the spec is well-formed and runnable.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	switch s.Env.Room {
	case "", "standard", "empty":
	default:
		return fmt.Errorf("scenario %q: unknown room %q", s.Name, s.Env.Room)
	}
	if len(s.Bodies) < 1 || len(s.Bodies) > MaxBodies {
		return fmt.Errorf("scenario %q: %d bodies (want 1..%d)", s.Name, len(s.Bodies), MaxBodies)
	}
	for i, b := range s.Bodies {
		m := b.Motion
		switch m.Kind {
		case MotionWalk, MotionStatic:
			if !(m.Duration > 0 && m.Duration <= MaxMotionDuration) {
				return fmt.Errorf("scenario %q body %d: %s duration %g s is outside (0, %g]", s.Name, i, m.Kind, m.Duration, MaxMotionDuration)
			}
		case MotionActivity:
			if _, err := parseActivity(m.Activity); err != nil {
				return fmt.Errorf("scenario %q body %d: %w", s.Name, i, err)
			}
		case MotionPointing:
		case MotionFallStudy, MotionPointingStudy:
			if len(s.Bodies) != 1 {
				return fmt.Errorf("scenario %q: protocol %s needs exactly one body", s.Name, m.Kind)
			}
		default:
			return fmt.Errorf("scenario %q body %d: unknown motion kind %q", s.Name, i, m.Kind)
		}
	}
	if len(s.Bodies) >= 2 {
		for i, b := range s.Bodies {
			if k := b.Motion.Kind; k != MotionWalk {
				return fmt.Errorf("scenario %q: multi-person tracking supports walk motion only (body %d is %q)", s.Name, i, k)
			}
		}
		for di, d := range s.Devices {
			if d.CalibrateFrames > 0 {
				return fmt.Errorf("scenario %q device %d: background calibration is not supported for multi-person cells", s.Name, di)
			}
		}
	}
	for di, d := range s.Devices {
		if d.Separation < 0 || d.Height < 0 {
			return fmt.Errorf("scenario %q device %d: negative geometry", s.Name, di)
		}
		if d.CalibrateFrames > MaxCalibrateFrames {
			return fmt.Errorf("scenario %q device %d: %d calibration frames exceed %d", s.Name, di, d.CalibrateFrames, MaxCalibrateFrames)
		}
		switch d.Tracker.Mode {
		case "", "contour", "strongest":
		default:
			return fmt.Errorf("scenario %q device %d: unknown tracker mode %q", s.Name, di, d.Tracker.Mode)
		}
		if d.Radio.MaxRange < 0 || d.Radio.SweepsPerFrame < 0 {
			return fmt.Errorf("scenario %q device %d: negative radio override", s.Name, di)
		}
	}
	if s.Fault != nil {
		if protocol(s.Bodies[0].Motion.Kind) {
			return fmt.Errorf("scenario %q: fault injection does not apply to protocol motion %q", s.Name, s.Bodies[0].Motion.Kind)
		}
		// The smallest fleet array bounds the antenna indexes a window
		// may target (every device runs the same schedule).
		minRx := 3
		for di := 0; di < s.deviceCount(); di++ {
			if !s.device(di).ExtraTopRx {
				minRx = 3
				break
			}
			minRx = 4
		}
		for i, w := range s.Fault.Windows {
			if _, err := fault.ParseKind(w.Kind); err != nil {
				return fmt.Errorf("scenario %q: fault window %d: %w", s.Name, i, err)
			}
			if w.Kind != fault.DropFrame.String() && (w.Antenna < -1 || w.Antenna >= minRx) {
				return fmt.Errorf("scenario %q: fault window %d: antenna %d out of range (fleet arrays have %d, -1 = all)", s.Name, i, w.Antenna, minRx)
			}
			if w.StartS < 0 {
				return fmt.Errorf("scenario %q: fault window %d: negative start %g s", s.Name, i, w.StartS)
			}
			if math.IsNaN(w.Prob) || w.Prob < 0 || w.Prob > 1 {
				return fmt.Errorf("scenario %q: fault window %d: probability %v out of [0, 1]", s.Name, i, w.Prob)
			}
		}
	}
	for _, a := range s.Expect {
		if a.Op != "<=" && a.Op != ">=" {
			return fmt.Errorf("scenario %q: assertion %q has op %q (want <= or >=)", s.Name, a.Metric, a.Op)
		}
		if a.Metric == "" {
			return fmt.Errorf("scenario %q: assertion with empty metric", s.Name)
		}
	}
	return nil
}

// LoadSpecs reads a JSON file holding either one Spec or a list of
// Specs and validates each.
func LoadSpecs(path string) ([]Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var specs []Spec
	if err := json.Unmarshal(data, &specs); err != nil {
		var one Spec
		if err1 := json.Unmarshal(data, &one); err1 != nil {
			return nil, fmt.Errorf("scenario: %s: %w", path, err)
		}
		specs = []Spec{one}
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}
