package scenario

import (
	"io"
	"math"
	"testing"
)

// TestDiffReportsFlagsEveryDeterministicField: every field a served or
// replayed result fills in — identity, frame and skip counts, each
// metric's bits, the trace set — is a difference when it drifts, so
// two reports that both diff clean against one snapshot agree on all
// of them. Only the storage-footprint fields are ignored.
func TestDiffReportsFlagsEveryDeterministicField(t *testing.T) {
	snap := func() ReplayResult {
		return ReplayResult{Trace: "a.wtrace", Name: "a", Device: 1, Frames: 10, Metrics: Metrics{"m": 1.5, "n": 2}}
	}
	diff := func(got ReplayResult) int {
		return DiffReports(io.Discard,
			&ReplayReport{Traces: []ReplayResult{snap()}},
			&ReplayReport{Traces: []ReplayResult{got}})
	}
	if n := diff(snap()); n != 0 {
		t.Fatalf("identical reports differ in %d places", n)
	}
	for name, mutate := range map[string]func(*ReplayResult){
		"name":          func(r *ReplayResult) { r.Name = "b" },
		"device":        func(r *ReplayResult) { r.Device = 2 },
		"frames":        func(r *ReplayResult) { r.Frames = 9 },
		"skips":         func(r *ReplayResult) { r.Skips = 1 },
		"metric bits":   func(r *ReplayResult) { r.Metrics["m"] = math.Nextafter(1.5, 2) },
		"metric lost":   func(r *ReplayResult) { delete(r.Metrics, "n") },
		"metric gained": func(r *ReplayResult) { r.Metrics["o"] = 0 },
		"trace":         func(r *ReplayResult) { r.Trace = "b.wtrace" },
	} {
		got := snap()
		mutate(&got)
		if diff(got) == 0 {
			t.Errorf("%s: drift went unreported", name)
		}
	}
	got := snap()
	got.RawBytes, got.TraceBytes, got.CompressionRatio = 100, 25, 4
	if n := diff(got); n != 0 {
		t.Fatalf("storage-footprint fields counted as %d differences", n)
	}
}
