package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sync"
	"testing"

	"witrack/internal/core"
	"witrack/internal/trace"
)

// quickMatrix is a reduced matrix for tests: one tracking fleet (two
// devices), one two-person scenario, and one protocol, with loose
// assertions.
func quickMatrix() []Spec {
	return []Spec{
		*New("track", "short walk on two placements").
			Seeded(21).ThroughWall().
			Walk(8, 4).
			Device(DeviceSpec{Separation: 1.0}).
			Device(DeviceSpec{Separation: 1.5}).
			Assert("valid_frac", ">=", 0.5),
		*New("pair", "two-person").
			Seeded(33).EmptyRoom().
			Body(BodySpec{Motion: MotionSpec{Kind: MotionWalk, Duration: 8, Seed: 34,
				Region: &RegionSpec{XMin: -3, XMax: -0.8, YMin: 3, YMax: 4.5}}}).
			Body(BodySpec{Motion: MotionSpec{Kind: MotionWalk, Duration: 8, Seed: 35,
				Region: &RegionSpec{XMin: 0.8, XMax: 3, YMin: 5.8, YMax: 7.5}}}).
			Assert("valid_frac", ">=", 0.2),
		*New("gestures", "two pointing gestures").
			Seeded(41).
			Body(BodySpec{Motion: MotionSpec{Kind: MotionPointingStudy}}).
			Repeat(2),
	}
}

// TestRunMatrixDeterministic runs the quick matrix twice — once
// serially, once with the full worker pool — and requires identical
// reports: the concurrent schedule must not leak into a single metric
// bit. This doubles as the MultiDevice fleet race test: under -race the
// pool executes two-person pipelines concurrently with everything else.
func TestRunMatrixDeterministic(t *testing.T) {
	serial, err := Run(context.Background(), quickMatrix(), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Run(context.Background(), quickMatrix(), Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(serial)
	b, _ := json.Marshal(pooled)
	if string(a) != string(b) {
		t.Fatalf("schedule leaked into the report:\n serial %s\n pooled %s", a, b)
	}
	if len(serial.Scenarios) != 3 {
		t.Fatalf("%d scenarios in report", len(serial.Scenarios))
	}
	if got := len(serial.Scenarios[0].Devices); got != 2 {
		t.Fatalf("track fleet has %d cells, want 2", got)
	}
	for _, res := range serial.Scenarios {
		if res.Metrics["frames"] == 0 && res.Name != "gestures" {
			t.Fatalf("%s processed no frames", res.Name)
		}
	}
}

// TestRunCellFilter pins the sharding hook: a Cells regexp restricts
// the matrix to matching scenario×device cells, scenarios with no
// matching cell vanish from the report, and a sharded union reproduces
// the unsharded cells exactly (cells derive their seeds independently
// of the schedule, so splitting the matrix cannot move a metric bit).
func TestRunCellFilter(t *testing.T) {
	specs := quickMatrix()
	full, err := Run(context.Background(), specs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Shard 1: only device 1 of the "track" fleet.
	shard, err := Run(context.Background(), specs, Options{Cells: regexp.MustCompile(`^track/1$`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(shard.Scenarios) != 1 || shard.Scenarios[0].Name != "track" {
		t.Fatalf("filtered report has %+v, want only track", shard.Failed)
	}
	if got := len(shard.Scenarios[0].Devices); got != 1 {
		t.Fatalf("filtered fleet has %d cells, want 1", got)
	}
	if shard.Scenarios[0].Devices[0].Device != 1 {
		t.Fatalf("filtered cell is device %d, want 1", shard.Scenarios[0].Devices[0].Device)
	}
	a, _ := json.Marshal(shard.Scenarios[0].Devices[0])
	b, _ := json.Marshal(full.Scenarios[0].Devices[1])
	if string(a) != string(b) {
		t.Fatalf("sharded cell diverged from the full-matrix cell:\n shard %s\n full  %s", a, b)
	}

	// A filter matching nothing is a usage error, not an empty report.
	if _, err := Run(context.Background(), specs, Options{Cells: regexp.MustCompile(`^nope$`)}); err == nil {
		t.Fatal("empty cell selection should error")
	}
}

// TestThreePersonShardMatchesCheckedInMatrix is the sharding gate on
// the canonical matrix: the '^three-person/' shard of the k-target
// scenario must reproduce its block of the checked-in SCENARIOS.json
// byte for byte (CI's scenario gate keeps that file equal to a fresh
// full-matrix run).
func TestThreePersonShardMatchesCheckedInMatrix(t *testing.T) {
	data, err := os.ReadFile("../../SCENARIOS.json")
	if err != nil {
		t.Fatal(err)
	}
	var full struct {
		Scenarios []json.RawMessage `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &full); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, raw := range full.Scenarios {
		var id struct{ Name string }
		if err := json.Unmarshal(raw, &id); err != nil {
			t.Fatal(err)
		}
		if id.Name == "three-person" {
			if err := json.Compact(&want, raw); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want.Len() == 0 {
		t.Fatal("SCENARIOS.json has no three-person block")
	}

	shard, err := Run(context.Background(), Canonical(), Options{Cells: regexp.MustCompile(`^three-person/`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(shard.Scenarios) != 1 || shard.Scenarios[0].Name != "three-person" {
		t.Fatalf("shard ran %d scenarios, want only three-person", len(shard.Scenarios))
	}
	got, err := json.Marshal(shard.Scenarios[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("three-person shard diverged from its SCENARIOS.json block:\n shard %s\n file  %s", got, want.Bytes())
	}
}

// TestRunEvaluatesAssertions checks pass/fail propagation, including
// the typo guard for assertions on metrics that don't exist.
func TestRunEvaluatesAssertions(t *testing.T) {
	specs := []Spec{
		*New("impossible", "").Seeded(3).Walk(6, 5).
			Assert("median_err_y_cm", "<=", 0.0001),
		*New("typo", "").Seeded(3).Walk(6, 5).
			Assert("median_err_y_inches", "<=", 10),
	}
	rep, err := Run(context.Background(), specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("report should fail")
	}
	if !reflect.DeepEqual(rep.Failed, []string{"impossible", "typo"}) {
		t.Fatalf("failed list: %v", rep.Failed)
	}
	typo := rep.Scenarios[1].Assertions[0]
	if !typo.Missing || typo.Pass {
		t.Fatalf("missing metric must fail: %+v", typo)
	}
}

// TestRunCancellation aborts a matrix mid-flight.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, quickMatrix(), Options{})
	if err == nil {
		t.Fatal("cancelled run should error")
	}
}

// TestFleetConcurrentMultiDevice drives several two-person MultiDevice
// pipelines at once on the shared FFT-plan caches — the fleet-scale
// race check (run under -race in CI).
func TestFleetConcurrentMultiDevice(t *testing.T) {
	sp := quickMatrix()[1]
	var wg sync.WaitGroup
	results := make([]*cellOutcome, 4)
	errs := make([]error, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := &cellOutcome{}
			results[i], errs[i] = out, runTrackingCell(context.Background(), &sp, 0, out)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	base, _ := json.Marshal(results[0].res.Metrics)
	for i := 1; i < len(results); i++ {
		got, _ := json.Marshal(results[i].res.Metrics)
		if string(got) != string(base) {
			t.Fatalf("concurrent two-person runs diverged: %s vs %s", base, got)
		}
	}
}

// TestScenarioCaptureReplay records the frames of a scenario cell and
// replays them through StreamFrom: the scenario layer must compose
// with the trace record/replay loop without perturbing a bit.
func TestScenarioCaptureReplay(t *testing.T) {
	sp := New("capture", "").Seeded(77).ThroughWall().Walk(5, 6)
	c, err := Compile(sp, 0)
	if err != nil {
		t.Fatal(err)
	}

	recDev, err := core.NewDevice(c.Config)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, recDev.TraceHeader())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recDev.RecordTo(tw, c.Trajectories[0]); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	directDev, err := core.NewDevice(c.Config)
	if err != nil {
		t.Fatal(err)
	}
	direct := directDev.Run(c.Trajectories[0]).Samples

	replayDev, err := core.NewDevice(c.Config)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	src := core.NewTraceSource(tr)
	ch, err := replayDev.StreamFrom(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	var replayed []core.Sample
	for s := range ch {
		replayed = append(replayed, s)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(direct) {
		t.Fatalf("replay %d samples vs direct %d", len(replayed), len(direct))
	}
	for i := range direct {
		if direct[i] != replayed[i] {
			t.Fatalf("sample %d differs between scenario run and trace replay", i)
		}
	}
}
