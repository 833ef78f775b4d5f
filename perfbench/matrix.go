package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"witrack/internal/fmcw"
	"witrack/internal/scenario"
)

// defaultSeed is the seed at which the matrix is the checked-in one:
// every pass must then equal SCENARIOS.json byte for byte.
const defaultSeed = 1

// matrixSpecs is the canonical matrix, reseeded away from the default
// seed: each scenario's simulation seed moves, the motions stay.
func matrixSpecs(seed int64) []scenario.Spec {
	specs := scenario.Canonical()
	if seed != defaultSeed {
		for i := range specs {
			specs[i].Seed += (seed - defaultSeed) * 7919
		}
	}
	return specs
}

// matrixRig is the matrix workload after set-up: the specs, the expected
// report bytes (SCENARIOS.json at the default seed, else nil until the
// first pass sets it) and the heap baseline.
type matrixRig struct {
	seed     int64
	want     []byte
	parallel int
	base     uint64
}

func setupMatrix(o *options) (*matrixRig, error) {
	rig := &matrixRig{seed: o.seed, parallel: runtime.NumCPU()}
	if o.seed == defaultSeed {
		want, err := os.ReadFile(filepath.Join(o.root, "SCENARIOS.json"))
		if err != nil {
			return nil, err
		}
		rig.want = want
	}
	// Warm-up: the cheapest cell, which builds the process-wide plan
	// caches a pass would otherwise build inside the timed phase.
	specs := matrixSpecs(o.seed)
	if _, err := scenario.Run(context.Background(), specs[len(specs)-1:], scenario.Options{Parallel: rig.parallel}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rig.base = heapBaseline()
	return rig, nil
}

// pass runs specs once and returns the report as witrack-scenarios
// writes it, plus the frames the pass fused.
func (r *matrixRig) pass(specs []scenario.Spec) ([]byte, int, error) {
	rep, err := scenario.Run(context.Background(), specs, scenario.Options{Parallel: r.parallel})
	if err != nil {
		return nil, 0, err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, 0, err
	}
	frames := 0
	for _, s := range rep.Scenarios {
		for _, d := range s.Devices {
			frames += d.Frames
		}
	}
	return append(data, '\n'), frames, nil
}

// checkedPass runs one full pass and checks its report against the
// expected bytes (the first pass's, away from the default seed).
func (r *matrixRig) checkedPass(c *counter) (int, bool) {
	data, frames, err := r.pass(matrixSpecs(r.seed))
	switch {
	case err != nil:
		c.fail(1, "matrix pass: %v", err)
		return 0, false
	case r.want == nil:
		r.want = data
	case !bytes.Equal(data, r.want):
		c.fail(1, "matrix pass report differs from the reference (%d vs %d bytes)", len(data), len(r.want))
		return frames, false
	}
	c.ok(1)
	return frames, true
}

func runMatrix(o *options, rig *matrixRig) (map[string]float64, *counter) {
	c := &counter{}
	m := map[string]float64{}
	end := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	if o.trace {
		end = time.Now().Add(time.Duration(o.seconds / 3 * float64(time.Second)))
	}
	pm := startPhase(rig.base)
	frames := 0
	var passes []float64 // ms of available time
	var counts []int
	for len(passes) == 0 || time.Now().Before(end) {
		t0 := time.Now()
		n, _ := rig.checkedPass(c)
		t1 := time.Now()
		passes = append(passes, float64(t1.Sub(t0))/1e6*steal.avail(t0, t1))
		counts = append(counts, n)
		frames += n
	}
	tot := pm.stop()
	if !o.trace {
		total := 0.0
		for _, p := range passes {
			total += p / 1e3
		}
		m["throughput_fps"] = float64(frames) / total
		m["latency_p50_ms"] = quantile(passes, 0.5)
		m["allocs_per_frame"] = float64(tot.allocs) / float64(frames)
		m["peak_heap_mb"] = tot.peakMB
		return m, c
	}
	m["latency_p90_ms"] = quantile(passes, 0.9)
	m["latency_p99_ms"] = quantile(passes, 0.99)
	m["core.cpu_us_per_frame"] = tot.cpu / float64(frames) * 1e6
	m["matrix.frames_per_pass"] = float64(frames) / float64(len(passes))

	// One pass per scenario, each spec alone, untraced and then traced.
	specs := matrixSpecs(rig.seed)
	tr := newTracer(false)
	var untraced, traced time.Duration
	for i := range specs {
		name := specs[i].Name
		t0 := time.Now()
		if _, _, err := rig.pass(specs[i : i+1]); err != nil {
			c.fail(1, "%s pass: %v", name, err)
			continue
		}
		untraced += time.Since(t0)
		t0 = time.Now()
		sp := tr.begin("scenario.pass", -1, int64(i))
		_, _, err := rig.pass(specs[i : i+1])
		tr.end(sp)
		traced += time.Since(t0)
		if err != nil {
			c.fail(1, "%s pass: %v", name, err)
			continue
		}
		c.ok(1)
		tr.spans[sp].Name = "scenario.pass." + name
		m["scenario.pass_s."+name] = float64(tr.spans[sp].End-tr.spans[sp].Start) / 1e9
	}
	o.spans.add(tr)
	m["bench.trace_overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	synthTimes(m)
	return m, c
}

// synthTimes times fmcw.NewSynthesizer for the three radios the
// workloads build devices for: the paper's, the corpus's and the compact
// sweep radio.
func synthTimes(m map[string]float64) {
	radios := map[string]fmcw.Config{"paper": radioConfig(defaultSeed).Radio}
	for name, sp := range map[string]scenario.Spec{"corpus": scenario.Corpus()[0], "compact": scenario.SweepCell()} {
		c, err := scenario.Compile(&sp, 0)
		if err != nil {
			continue
		}
		radios[name] = c.Config.Radio
	}
	for name, radio := range radios {
		m["fmcw.new_synth_ms."+name] = timeIt(5, func() { fmcw.NewSynthesizer(radio) })
	}
}
