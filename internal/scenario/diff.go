package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// LoadReport reads a ReplayReport snapshot (CORPUS.json) from disk.
func LoadReport(path string) (*ReplayReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap ReplayReport
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &snap, nil
}

// DiffReports compares the snapshot against the replayed results,
// printing every difference to w, and returns how many it found. Metric
// values must match to the bit (the replay pipeline is deterministic;
// JSON float64 round-trips are exact in Go), so any drift — identity,
// frame or skip count, numeric, missing metric, missing trace — is a
// regression. Only the storage-footprint fields are ignored. Both witrack-replay
// (replay vs live snapshot) and witrack-load (served vs the same
// snapshot) gate on this, closing the live == replay == served chain.
func DiffReports(w io.Writer, snap, got *ReplayReport) int {
	byTrace := func(rep *ReplayReport) map[string]ReplayResult {
		m := make(map[string]ReplayResult, len(rep.Traces))
		for _, r := range rep.Traces {
			m[r.Trace] = r
		}
		return m
	}
	want, have := byTrace(snap), byTrace(got)
	var names []string
	for name := range want {
		names = append(names, name)
	}
	for name := range have {
		if _, ok := want[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	diffs := 0
	report := func(format string, args ...any) {
		diffs++
		fmt.Fprintf(w, "  DIFF "+format+"\n", args...)
	}
	for _, name := range names {
		wr, inSnap := want[name]
		g, inGot := have[name]
		switch {
		case !inSnap:
			report("%s: replayed but absent from snapshot", name)
			continue
		case !inGot:
			report("%s: in snapshot but not replayed", name)
			continue
		}
		if wr.Name != g.Name || wr.Device != g.Device {
			report("%s: identity (%s, device %d) != snapshot (%s, device %d)", name, g.Name, g.Device, wr.Name, wr.Device)
		}
		if wr.Frames != g.Frames {
			report("%s: %d frames != snapshot %d", name, g.Frames, wr.Frames)
		}
		if wr.Skips != g.Skips {
			report("%s: %d skipped records != snapshot %d", name, g.Skips, wr.Skips)
		}
		keys := map[string]bool{}
		for k := range wr.Metrics {
			keys[k] = true
		}
		for k := range g.Metrics {
			keys[k] = true
		}
		var sorted []string
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			wv, okW := wr.Metrics[k]
			gv, okG := g.Metrics[k]
			switch {
			case !okW:
				report("%s: metric %s = %.17g absent from snapshot", name, k, gv)
			case !okG:
				report("%s: snapshot metric %s = %.17g not produced", name, k, wv)
			case math.Float64bits(wv) != math.Float64bits(gv):
				report("%s: metric %s = %.17g != snapshot %.17g", name, k, gv, wv)
			}
		}
	}
	return diffs
}
