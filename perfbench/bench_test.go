package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"witrack/internal/core"
	"witrack/internal/scenario"
)

// tiny is a run at the smallest size that still exercises every phase:
// one set-up, a one-second measurement.
func tiny(workload string, trace bool) *options {
	return &options{workload: workload, seed: defaultSeed, seconds: 1, trace: trace, root: "..", reps: 1}
}

// TestEveryMetricEmitted runs each workload end to end and traced at a
// tiny size: every metric BENCHMARK.json names must come out, with its
// unit and a finite value, and no operation may fail.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, tr := range []bool{false, true} {
			o := tiny(w.name, tr)
			o.spansDir = t.TempDir()
			res, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, tr, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, tr, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if tr {
				defs = perLayer()
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, tr, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, tr, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.name, tr, d.Name, got.Unit, d.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.name, tr, d.Name, got.Value)
				case !tr && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, got.Value)
				}
			}
			if tr {
				if _, err := os.Stat(filepath.Join(o.spansDir, w.name+"-seed1.jsonl")); err != nil {
					t.Errorf("%s: spans not written: %v", w.name, err)
				}
			}
		}
	}
}

// flip returns a copy of data with one byte of the compressed body
// inverted.
func flip(data []byte) []byte {
	out := append([]byte(nil), data...)
	out[len(out)/2] ^= 0xff
	return out
}

// The radio-int16 checks: a damaged trace and a tampered reference must
// each surface as failed operations, end to end and in the serial layer
// replay, without a panic.
func TestRadioFailuresCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("records a trace")
	}
	o := tiny("radio-int16", false)
	o.spans = &spanSink{}
	rig, err := setupRadio(o)
	if err != nil {
		t.Fatal(err)
	}
	good, ref := rig.data, rig.ref

	rig.data = flip(good)
	if _, c := runRadio(o, rig); c.failed == 0 {
		t.Error("flipped trace byte: no failed operation")
	}
	var c counter
	if newSerialReplayer(rig.cfg).replayChecked(rig, nil, 0, &c); c.failed == 0 {
		t.Error("flipped trace byte: serial layer replay reported no failure")
	}

	rig.data = good
	rig.ref = append([]core.Sample(nil), ref...)
	rig.ref[len(ref)/2].Pos.X += 1e-9
	if _, c := runRadio(o, rig); c.failed == 0 {
		t.Error("tampered reference: no failed operation")
	}
	c = counter{}
	if newSerialReplayer(rig.cfg).replayChecked(rig, nil, 0, &c); c.failed == 0 {
		t.Error("tampered reference: serial layer replay reported no failure")
	}
}

func TestSvcFailuresCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	o := tiny("svc-mixed", false)
	o.spans = &spanSink{}
	rig, err := setupSvc(o)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	var corpus *svcTrace
	for _, tr := range rig.traces {
		if tr.golden != nil {
			corpus = tr
		}
	}

	good := corpus.data
	corpus.data = flip(good)
	var c counter
	if _, ok := rig.session(corpus, nil, 0, &c); ok || c.failed != 1 {
		t.Errorf("flipped trace byte: ok=%v failed=%d, want a failed session", ok, c.failed)
	}
	corpus.data = good

	for _, ref := range []**scenario.ReplayResult{&corpus.offline, &corpus.golden} {
		saved := *ref
		tampered := *saved
		tampered.Metrics = map[string]float64{}
		for k, v := range saved.Metrics {
			tampered.Metrics[k] = v
		}
		for k := range tampered.Metrics {
			tampered.Metrics[k] += 1e-9
			break
		}
		*ref = &tampered
		c = counter{}
		if _, ok := rig.session(corpus, nil, 0, &c); ok || c.failed != 1 {
			t.Errorf("tampered reference: ok=%v failed=%d, want a failed session", ok, c.failed)
		}
		*ref = saved
	}
	c = counter{}
	if _, ok := rig.session(corpus, nil, 0, &c); !ok || c.failed != 0 {
		t.Errorf("restored references: ok=%v failed=%d", ok, c.failed)
	}
}

func TestMatrixFailuresCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the matrix")
	}
	o := tiny("matrix", false)
	rig, err := setupMatrix(o)
	if err != nil {
		t.Fatal(err)
	}
	rig.want = bytes.Replace(rig.want, []byte(`"pass": true`), []byte(`"pass": false`), 1)
	var c counter
	if _, ok := rig.checkedPass(&c); ok || c.failed != 1 {
		t.Errorf("tampered SCENARIOS.json: ok=%v failed=%d, want a failed pass", ok, c.failed)
	}
}

// TestSpecFile pins BENCHMARK.json to the tables in main.go.
func TestSpecFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := writeSpec(path); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is out of date: regenerate it with --write-spec BENCHMARK.json")
	}
}

func TestParseSteal(t *testing.T) {
	if v, ok := parseSteal([]byte("cpu  158484 0 5531 416544 161 0 1618 12241 0 0\ncpu0 1 2 3\n")); !ok || v != 12241 {
		t.Errorf("parseSteal = %v, %v; want 12241, true", v, ok)
	}
	if _, ok := parseSteal([]byte("cpu  1 2 3\n")); ok {
		t.Error("parseSteal accepted a line without a steal field")
	}
}
