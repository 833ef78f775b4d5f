package scenario

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSpecJSONRoundTrip pins the codec: a spec marshals to JSON and
// back without losing anything — scenarios are files, not code.
func TestSpecJSONRoundTrip(t *testing.T) {
	kq := 1e6
	sp := New("round-trip", "codec check").
		Seeded(99).ThroughWall().
		Cluttered(Clutter{X: 1, Y: 2, Z: 0.5, RCS: 1.1}).
		Body(BodySpec{
			Subject: SubjectSpec{PanelSize: 11, PanelSeed: 3, PanelIndex: 4},
			Motion: MotionSpec{
				Kind: MotionWalk, Duration: 12, Seed: 5,
				Region: &RegionSpec{XMin: -2, XMax: 2, YMin: 3, YMax: 6},
			},
		}).
		Device(DeviceSpec{Separation: 1.5, Workers: 2, Tracker: TrackerSpec{Mode: "strongest", KalmanQ: &kq}}).
		Assert("median_err_y_cm", "<=", 20)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}

	data, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*sp, back) {
		t.Fatalf("round trip lost data:\n in  %+v\n out %+v", *sp, back)
	}
}

// TestLoadSpecs exercises the file loader with both a single spec and
// a list.
func TestLoadSpecs(t *testing.T) {
	dir := t.TempDir()
	one := New("solo", "").Seeded(1).Walk(5, 2)
	list := []Spec{*New("a", "").Seeded(1).Walk(5, 2), *New("b", "").Seeded(2).Static(0, 5, 5)}

	soloPath := filepath.Join(dir, "solo.json")
	data, _ := json.Marshal(one)
	if err := os.WriteFile(soloPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpecs(soloPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "solo" {
		t.Fatalf("solo load: %+v", got)
	}

	listPath := filepath.Join(dir, "list.json")
	data, _ = json.Marshal(list)
	if err := os.WriteFile(listPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LoadSpecs(listPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Name != "b" {
		t.Fatalf("list load: %+v", got)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x","bodies":[{"motion":{"kind":"teleport"}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpecs(bad); err == nil {
		t.Fatal("invalid motion kind should fail validation")
	}
}

// TestValidateRejectsBadSpecs sweeps the validation rules.
func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		label string
		spec  *Spec
	}{
		{"no name", &Spec{Bodies: []BodySpec{{Motion: MotionSpec{Kind: MotionWalk, Duration: 5}}}}},
		{"no bodies", New("x", "")},
		{"zero duration walk", New("x", "").Body(BodySpec{Motion: MotionSpec{Kind: MotionWalk}})},
		{"negative duration walk", New("x", "").Walk(-5, 1)},
		{"NaN duration walk", New("x", "").Walk(math.NaN(), 1)},
		{"infinite walk", New("x", "").Walk(math.Inf(1), 1)},
		{"walk past the cap", New("x", "").Walk(MaxMotionDuration+1, 1)},
		{"1e9 s walk", New("x", "").Walk(1e9, 1)},
		{"NaN duration static", New("x", "").Static(0, 5, math.NaN())},
		{"static past the cap", New("x", "").Static(0, 5, MaxMotionDuration+1)},
		{"bad activity", New("x", "").Body(BodySpec{Motion: MotionSpec{Kind: MotionActivity, Activity: "moonwalk"}})},
		{"bad room", func() *Spec { s := New("x", "").Walk(5, 1); s.Env.Room = "dungeon"; return s }()},
		{"five bodies", New("x", "").Walk(5, 1).Walk(5, 2).Walk(5, 3).Walk(5, 4).Walk(5, 5)},
		{"multi-person non-walk", New("x", "").Walk(5, 1).Walk(5, 2).Static(0, 5, 5)},
		{"multi-person calibration", New("x", "").Walk(5, 1).Walk(5, 2).Device(DeviceSpec{CalibrateFrames: 10})},
		{"two-person protocol", New("x", "").Walk(5, 1).Body(BodySpec{Motion: MotionSpec{Kind: MotionFallStudy}})},
		{"bad op", New("x", "").Walk(5, 1).Assert("valid_frac", "==", 1)},
		{"bad tracker mode", New("x", "").Walk(5, 1).Device(DeviceSpec{Tracker: TrackerSpec{Mode: "psychic"}})},
		{"calibration past the cap", New("x", "").Static(0, 5, 5).Device(DeviceSpec{CalibrateFrames: MaxCalibrateFrames + 1})},
		{"1e9 calibration frames", New("x", "").Static(0, 5, 5).Device(DeviceSpec{CalibrateFrames: 1e9})},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: validation should fail", c.label)
		}
	}
	for _, sp := range Canonical() {
		if err := sp.Validate(); err != nil {
			t.Errorf("canonical %q invalid: %v", sp.Name, err)
		}
	}
	for _, sp := range []*Spec{
		New("x", "").Walk(MaxMotionDuration, 1),
		New("x", "").Static(0, 5, MaxMotionDuration),
		New("x", "").Static(0, 5, 5).Device(DeviceSpec{CalibrateFrames: MaxCalibrateFrames}),
	} {
		if err := sp.Validate(); err != nil {
			t.Errorf("spec at a cap refused: %v", err)
		}
	}
}

// TestCompileDefaults pins the zero-value placement: a spec without an
// explicit device list compiles to the paper's default deployment.
func TestCompileDefaults(t *testing.T) {
	sp := New("defaults", "").Seeded(11).Walk(5, 3)
	c, err := Compile(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Config.Array.Rx); got != 3 {
		t.Fatalf("default array has %d Rx, want 3", got)
	}
	if c.Config.Seed != 11 {
		t.Fatalf("device 0 seed %d, want the spec seed", c.Config.Seed)
	}
	if len(c.Trajectories) != 1 {
		t.Fatalf("%d trajectories", len(c.Trajectories))
	}
	if d := c.Trajectories[0].Duration(); d != 5 {
		t.Fatalf("trajectory duration %v", d)
	}

	// Device index shifts only the simulation seed, not the trajectory.
	sp2 := New("defaults", "").Seeded(11).Walk(5, 3).
		Device(DeviceSpec{}).Device(DeviceSpec{})
	c1, err := Compile(sp2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Config.Seed == c.Config.Seed {
		t.Fatal("fleet devices should draw independent simulation seeds")
	}
	s0 := c.Trajectories[0].At(2.5)
	s1 := c1.Trajectories[0].At(2.5)
	if s0.Center != s1.Center {
		t.Fatal("the trajectory must be shared across the fleet")
	}
}

// TestCompileExtras covers the ablation-oriented device knobs.
func TestCompileExtras(t *testing.T) {
	kq := 123.0
	sp := New("extras", "").Seeded(1).
		Cluttered(Clutter{X: 1, Y: 4, Z: 1, RCS: 2}).
		Walk(5, 2).
		Device(DeviceSpec{Separation: 0.5, Height: 1.2, ExtraTopRx: true,
			Tracker: TrackerSpec{KalmanQ: &kq}})
	c, err := Compile(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Config.Array.Rx); got != 4 {
		t.Fatalf("extra-Rx array has %d Rx, want 4", got)
	}
	top := c.Config.Array.Rx[3]
	if top.Z != 1.2+0.5 {
		t.Fatalf("top Rx at z=%v", top.Z)
	}
	if c.Config.TrackerOverride == nil {
		t.Fatal("tracker override not compiled")
	}
	statics := c.Config.Scene.Statics
	if len(statics) == 0 || statics[len(statics)-1].RCS != 2 {
		t.Fatal("clutter not appended to the scene")
	}
}
