// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the code as it stands, checks every output bit for
// bit, and prints the workload's metrics, the last line of standard
// output being one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones, from a separate run that
// times the calls into each layer inside spans. --all runs every
// workload both ways; --write-spec writes BENCHMARK.json from the tables
// below. Build and run it through run.sh in this directory, from the
// repository root:
//
//	bash perfbench/run.sh --workload radio-int16 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"witrack/internal/scenario"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root: the corpus, CORPUS.json, SCENARIOS.json
	reps     int    // set-ups per run; 0 means minSetups to maxSetups
	spansDir string // where the traced run writes its spans; "" means .bench_build/spans
	spans    *spanSink
}

// A run sets its workload up at least minSetups times and until
// minSetupTime has gone by, at most maxSetups times, and keeps the last;
// setup_s is the median of their available times (see stealClock.avail).
// Repeating the cheap matrix set-up keeps its 0.1 s from reading a single
// scheduling hiccup.
const (
	minSetups    = 3
	maxSetups    = 15
	minSetupTime = 2 * time.Second
)

// workload is one traffic mix. setup builds the inputs and the system
// under test and returns the run function that measures it; close
// releases what setup started.
type workload struct {
	name, why string
	setup     func(o *options) (run func() (map[string]float64, *counter), close func(), err error)
}

var workloads = []workload{
	{"radio-int16", "one device replays a recorded 14-bit int16 sweep trace, paced at the radio's 80 frames/s and flat out: trace decode and the fused FFT kernels",
		func(o *options) (func() (map[string]float64, *counter), func(), error) {
			rig, err := setupRadio(o)
			if err != nil {
				return nil, nil, err
			}
			return func() (map[string]float64, *counter) { return runRadio(o, rig) }, func() {}, nil
		}},
	{"svc-mixed", "2 closed-loop clients stream corpus and sweep traces into the in-process daemon: ingest, pool, arena and cross-session FFT batching",
		func(o *options) (func() (map[string]float64, *counter), func(), error) {
			rig, err := setupSvc(o)
			if err != nil {
				return nil, nil, err
			}
			return func() (map[string]float64, *counter) { return runSvc(o, rig) }, rig.close, nil
		}},
	{"matrix", "back-to-back passes of the canonical scenario matrix: live fast-path synthesis and the pipeline hand-offs, no FFT and no trace decode",
		func(o *options) (func() (map[string]float64, *counter), func(), error) {
			rig, err := setupMatrix(o)
			if err != nil {
				return nil, nil, err
			}
			return func() (map[string]float64, *counter) { return runMatrix(o, rig) }, func() {}, nil
		}},
}

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one; latency is the time of
// the workload's unit of work (a fix from its due time, a session from
// CreateSession to its close summary, a matrix pass).
var endToEnd = []metricDef{
	{"throughput_fps", "1/s", "higher", bound(0.25)},
	{"latency_p50_ms", "ms", "lower", bound(0.25)},
	{"setup_s", "s", "lower", bound(0.25)},
	{"allocs_per_frame", "allocs/frame", "lower", bound(0.15)},
	{"peak_heap_mb", "MB", "lower", bound(0.25)},
}

// svcClasses are the session classes of svc-mixed, by trace kind.
var svcClasses = []string{"bin", "duo", "sweep-f64", "sweep-int16"}

// perLayer are the traced run's metrics. A workload that does not reach a
// layer reports it as 0.
func perLayer() []metricDef {
	l := func(name, unit, better string) metricDef { return metricDef{Name: name, Unit: unit, Better: better} }
	defs := []metricDef{
		l("latency_p90_ms", "ms", "lower"),
		l("latency_p99_ms", "ms", "lower"),
		l("core.cpu_us_per_frame", "us", "lower"),
		l("bench.trace_overhead_pct", "%", "lower"),
		l("fmcw.new_synth_ms.paper", "ms", "lower"),
		l("fmcw.new_synth_ms.corpus", "ms", "lower"),
		l("fmcw.new_synth_ms.compact", "ms", "lower"),
		l("trace.decode_us_per_frame", "us", "lower"),
		l("trace.decode_allocs_per_frame", "allocs/frame", "lower"),
		l("trace.encode_us_per_frame", "us", "lower"),
		l("core.record_us_per_frame", "us", "lower"),
		l("dsp.materialize_us_per_frame", "us", "lower"),
		l("dsp.materialize_allocs_per_frame", "allocs/frame", "lower"),
		l("track.push_us_per_frame", "us", "lower"),
		l("track.push_allocs_per_frame", "allocs/frame", "lower"),
		l("locate.solve_us_per_frame", "us", "lower"),
		l("locate.solve_allocs_per_frame", "allocs/frame", "lower"),
		l("core.overhead_us_per_frame", "us", "lower"),
		l("core.allocs_attributed_pct", "%", "higher"),
		l("gen.late_p50_ms", "ms", "lower"),
		l("gen.late_p99_ms", "ms", "lower"),
	}
	for _, c := range svcClasses {
		defs = append(defs,
			l("svc.device_ms."+c, "ms", "lower"),
			l("svc.decode_ms."+c, "ms", "lower"),
			l("svc.offline_ms."+c, "ms", "lower"),
			l("svc.session_p50_ms."+c, "ms", "lower"),
			l("svc.overhead_ms."+c, "ms", "lower"))
	}
	defs = append(defs,
		l("svc.create_ms", "ms", "lower"),
		l("svc.delete_ms", "ms", "lower"),
		l("svc.transport_ms", "ms", "lower"),
		l("svc.bytes_per_frame", "B/frame", "lower"),
		l("batch.coalesced_frac", "1", "higher"),
		l("batch.submitted_per_frame", "1/frame", "lower"),
	)
	for _, name := range scenario.CanonicalNames() {
		defs = append(defs, l("scenario.pass_s."+name, "s", "lower"))
	}
	return append(defs, l("matrix.frames_per_pass", "frames", "higher"))
}

// runSeconds is how long one run measures.
const runSeconds = 30

func writeSpec(path string) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// runWorkload sets the workload up (see minSetups), keeping the last,
// runs it once and returns its result line. An error means the run could
// not be measured at all.
func runWorkload(o *options) (*resultOut, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	o.spans = &spanSink{}
	var run func() (map[string]float64, *counter)
	var closeFn func()
	var setups []float64
	var spent time.Duration
	for len(setups) < maxSetups && (len(setups) < minSetups || spent < minSetupTime) {
		if o.reps > 0 && len(setups) == o.reps {
			break
		}
		if closeFn != nil {
			closeFn()
		}
		t0 := time.Now()
		var err error
		run, closeFn, err = w.setup(o)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		t1 := time.Now()
		spent += t1.Sub(t0)
		setups = append(setups, t1.Sub(t0).Seconds()*steal.avail(t0, t1))
	}
	got, c := safeRun(run)
	closeFn()
	if o.trace {
		dir := o.spansDir
		if dir == "" {
			dir = filepath.Join(o.root, ".bench_build", "spans")
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := o.spans.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	got["setup_s"] = median(setups)

	res := &resultOut{Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metricOut{}}
	defs := endToEnd
	if o.trace {
		defs = perLayer()
	}
	for _, d := range defs {
		v := got[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // nothing measured: the run's failures say why
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
		c.reasons = append(c.reasons, "no operation completed")
	}
	res.Correct = res.Failed == 0
	for _, r := range c.reasons {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED %s\n", o.workload, r)
	}
	return res, nil
}

// safeRun runs the measurement, turning a panic into one failed
// operation so a broken program is reported, not crashed on.
func safeRun(run func() (map[string]float64, *counter)) (m map[string]float64, c *counter) {
	defer func() {
		if p := recover(); p != nil {
			m, c = map[string]float64{}, &counter{}
			c.fail(1, "panic: %v\n%s", p, debug.Stack())
		}
	}()
	return run()
}

func printTable(w string, res *resultOut) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("== %s: %d operations, %d failed\n", w, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

func main() {
	o := &options{}
	flag.StringVar(&o.workload, "workload", "", "workload to run: radio-int16, svc-mixed or matrix")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measured time per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.StringVar(&o.root, "root", ".", "repository root")
	all := flag.Bool("all", false, "run every workload, end-to-end and traced")
	spec := flag.String("write-spec", "", "write the benchmark definition (BENCHMARK.json) to this path and exit")
	flag.Parse()
	if *spec != "" {
		if err := writeSpec(*spec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if o.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || (o.workload == "") == !*all {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload NAME or --all, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	if *all {
		ok := true
		for _, w := range workloads {
			for _, tr := range []bool{false, true} {
				oo := *o
				oo.workload, oo.trace = w.name, tr
				res, err := runWorkload(&oo)
				if err != nil {
					fmt.Fprintln(os.Stderr, "perfbench:", err)
					os.Exit(1)
				}
				printTable(fmt.Sprintf("%s (trace %v)", w.name, tr), res)
				ok = ok && res.Correct
			}
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	o.trace = *traceFlag == 1
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printTable(o.workload, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
