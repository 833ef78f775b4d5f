package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"witrack/internal/core"
	"witrack/internal/scenario"
	"witrack/internal/svc"
	"witrack/internal/trace"
)

// svcConns is the number of client connections, each a closed loop of
// sessions; two match nproc on the 2-vCPU VM the benchmark was sized for.
const svcConns = 2

// svcTrace is one trace of the svc-mixed rotation with its references.
type svcTrace struct {
	name    string
	class   string
	data    []byte
	offline *scenario.ReplayResult // in-process replay of the same bytes
	golden  *scenario.ReplayResult // the CORPUS.json entry; nil for generated traces
}

// svcRig is the svc-mixed workload after set-up: the traces in rotation
// order and a warmed-up in-process server.
type svcRig struct {
	traces []*svcTrace
	srv    *svc.Server
	client *svc.Client
	hc     *http.Client
	ingest string
	base   uint64
}

func (r *svcRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.srv.Shutdown(ctx)
	r.hc.CloseIdleConnections()
}

// sweepCells are the generated sweep-domain traces, reseeded away from
// the default seed (simulation and walk both).
func sweepCells(seed int64) []scenario.Spec {
	var out []scenario.Spec
	for _, sp := range []scenario.Spec{scenario.SweepCell(), scenario.SweepCellInt16()} {
		sp.Seed += seed - defaultSeed
		sp.Bodies[0].Motion.Seed += seed - defaultSeed
		out = append(out, sp)
	}
	return out
}

// traceClass names the session class of a trace: bin-domain single
// person, bin-domain two person, or sweep domain by sample encoding.
func traceClass(data []byte) (string, error) {
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	h := r.Header()
	switch {
	case h.Domain == trace.DomainSweeps && h.Sample == trace.SampleInt16:
		return "sweep-int16", nil
	case h.Domain == trace.DomainSweeps:
		return "sweep-f64", nil
	}
	var sp scenario.Spec
	if err := json.Unmarshal(h.Scenario, &sp); err != nil {
		return "", err
	}
	if len(sp.Bodies) > 1 {
		return "duo", nil
	}
	return "bin", nil
}

func setupSvc(o *options) (*svcRig, error) {
	dir := filepath.Join(o.root, "internal", "scenario", "testdata", "corpus")
	snap, err := scenario.LoadReport(filepath.Join(dir, "CORPUS.json"))
	if err != nil {
		return nil, err
	}
	golden := map[string]*scenario.ReplayResult{}
	for i := range snap.Traces {
		golden[snap.Traces[i].Trace] = &snap.Traces[i]
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.wtrace"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var traces []*svcTrace
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		name := filepath.Base(f)
		if golden[name] == nil {
			return nil, fmt.Errorf("%s has no CORPUS.json entry", name)
		}
		traces = append(traces, &svcTrace{name: name, data: data, golden: golden[name]})
	}
	if len(traces) != 5 {
		return nil, fmt.Errorf("found %d corpus traces in %s, want 5", len(traces), dir)
	}
	for _, sp := range sweepCells(o.seed) {
		var buf bytes.Buffer
		if _, _, err := scenario.RecordCellSweeps(&sp, 0, &buf); err != nil {
			return nil, fmt.Errorf("recording %s: %w", sp.Name, err)
		}
		traces = append(traces, &svcTrace{name: sp.Name, data: buf.Bytes()})
	}
	for _, t := range traces {
		if t.class, err = traceClass(t.data); err != nil {
			return nil, fmt.Errorf("%s: %w", t.name, err)
		}
		if t.offline, err = scenario.ReplayTrace(context.Background(), bytes.NewReader(t.data)); err != nil {
			return nil, fmt.Errorf("offline replay of %s: %w", t.name, err)
		}
		t.offline.Trace = t.name
	}
	// The seed turns the rotation: it picks the trace the first
	// connection starts on. The cyclic order itself stays fixed, so every
	// seed pairs the same traces on the two connections.
	rig := &svcRig{}
	for i := range traces {
		rig.traces = append(rig.traces, traces[(i+int(o.seed%int64(len(traces)))+len(traces))%len(traces)])
	}

	rig.base = heapBaseline()
	rig.srv = svc.NewServer(svc.Config{})
	if err := rig.srv.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	rig.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: svcConns}}
	rig.client = &svc.Client{Mgmt: "http://" + rig.srv.MgmtAddr(), HTTP: rig.hc}
	rig.ingest = rig.srv.IngestAddr()
	var c counter
	for i, t := range rig.traces {
		rig.session(t, nil, int64(i), &c)
	}
	if c.failed > 0 {
		rig.close()
		return nil, fmt.Errorf("warm-up sessions: %v", c.reasons)
	}
	return rig, nil
}

// sessionRec is one session's timings, in ms, and counts.
type sessionRec struct {
	class                                string
	latency, create, ingest, server, del float64
	frames, bytes                        int
	submitted, coalesced                 int64
}

// session runs one closed-loop session: CreateSession, an unpaced
// IngestTCP of the whole trace, DeleteSession. It checks the served
// result against the offline replay and, for corpus traces, CORPUS.json.
func (r *svcRig) session(t *svcTrace, tr *tracer, req int64, c *counter) (sessionRec, bool) {
	rec := sessionRec{class: t.class, bytes: len(t.data)}
	root := tr.begin("svc.session."+t.class, -1, req)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("svc.create", root, req)
	st, err := r.client.CreateSession(svc.CreateRequest{Name: t.name})
	tr.end(sp)
	if err != nil {
		c.fail(1, "%s: create: %v", t.name, err)
		return rec, false
	}
	t1 := time.Now()
	sp = tr.begin("svc.ingest", root, req)
	sum, err := svc.IngestTCP(r.ingest, st.ID, t.data, svc.IngestOptions{})
	tr.end(sp)
	t2 := time.Now()
	sp = tr.begin("svc.delete", root, req)
	derr := r.client.DeleteSession(st.ID)
	tr.end(sp)
	t3 := time.Now()
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	// The session's latency in available time; the layer timings raw.
	rec.latency = ms(t2.Sub(t0)) * steal.avail(t0, t2)
	rec.create, rec.ingest, rec.del = ms(t1.Sub(t0)), ms(t2.Sub(t1)), ms(t3.Sub(t2))
	switch {
	case err != nil:
		c.fail(1, "%s: ingest: %v", t.name, err)
		return rec, false
	case !sum.OK || sum.Result == nil:
		c.fail(1, "%s: session failed: %s", t.name, sum.Error)
		return rec, false
	case derr != nil:
		c.fail(1, "%s: delete: %v", t.name, derr)
		return rec, false
	}
	got := *sum.Result
	got.Trace = t.name
	if d := diffResult(t.offline, &got); d > 0 {
		c.fail(1, "%s: served result differs from the offline replay in %d places", t.name, d)
		return rec, false
	}
	if t.golden != nil {
		if d := diffResult(t.golden, &got); d > 0 {
			c.fail(1, "%s: served result differs from CORPUS.json in %d places", t.name, d)
			return rec, false
		}
	}
	c.ok(1)
	rec.frames = got.Frames
	if sum.Timing != nil {
		rec.server = sum.Timing.WallSeconds * 1e3
		rec.submitted, rec.coalesced = sum.Timing.BatchSubmitted, sum.Timing.BatchCoalesced
	}
	return rec, true
}

func diffResult(want, got *scenario.ReplayResult) int {
	return scenario.DiffReports(io.Discard,
		&scenario.ReplayReport{Traces: []scenario.ReplayResult{*want}},
		&scenario.ReplayReport{Traces: []scenario.ReplayResult{*got}})
}

// loop runs svcConns closed-loop clients over the rotation until the
// deadline; each starts at its own offset and finishes its last session
// after the deadline. It returns every session's record.
func (r *svcRig) loop(seconds float64, traced bool, o *options, c *counter) []sessionRec {
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	recs := make([][]sessionRec, svcConns)
	var wg sync.WaitGroup
	for conn := 0; conn < svcConns; conn++ {
		conn := conn
		var tr *tracer
		if traced {
			tr = newTracer(false)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer o.spans.add(tr)
			for i := conn * len(r.traces) / svcConns; time.Now().Before(end); i++ {
				req := int64(conn)<<32 | int64(i)
				if rec, ok := r.session(r.traces[i%len(r.traces)], tr, req, c); ok {
					recs[conn] = append(recs[conn], rec)
				}
			}
		}()
	}
	wg.Wait()
	var all []sessionRec
	for _, l := range recs {
		all = append(all, l...)
	}
	return all
}

func framesOf(recs []sessionRec) int {
	n := 0
	for _, r := range recs {
		n += r.frames
	}
	return n
}

func pick(recs []sessionRec, f func(sessionRec) float64) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = f(r)
	}
	return out
}

func runSvc(o *options, rig *svcRig) (map[string]float64, *counter) {
	c := &counter{}
	m := map[string]float64{}
	if !o.trace {
		pm := startPhase(rig.base)
		recs := rig.loop(o.seconds, false, o, c)
		tot := pm.stop()
		frames := framesOf(recs)
		m["throughput_fps"] = float64(frames) / (tot.wall * tot.avail)
		m["latency_p50_ms"] = quantile(pick(recs, func(r sessionRec) float64 { return r.latency }), 0.5)
		m["allocs_per_frame"] = float64(tot.allocs) / float64(max(frames, 1))
		m["peak_heap_mb"] = tot.peakMB
		return m, c
	}

	// Per class: the offline costs of what a session does, each the
	// median of three timed calls inside spans.
	tr := newTracer(false)
	byClass := map[string]map[string][]float64{}
	for i, t := range rig.traces {
		cm := byClass[t.class]
		if cm == nil {
			cm = map[string][]float64{}
			byClass[t.class] = cm
		}
		probe := func(name string, fn func() error) {
			var ds []float64
			for rep := 0; rep < 3; rep++ {
				sp := tr.begin("svc."+name, -1, int64(i))
				err := fn()
				tr.end(sp)
				if err != nil {
					c.fail(1, "%s: %s: %v", t.name, name, err)
					return
				}
				c.ok(1)
				ds = append(ds, float64(tr.spans[sp].End-tr.spans[sp].Start)/1e6)
			}
			cm[name] = append(cm[name], median(ds))
		}
		probe("device", func() error { return buildDevice(t.data) })
		probe("decode", func() error { return decodeAll(t.data) })
		probe("offline", func() error {
			res, err := scenario.ReplayTrace(context.Background(), bytes.NewReader(t.data))
			if err == nil {
				res.Trace = t.name
				if d := diffResult(t.offline, res); d > 0 {
					err = fmt.Errorf("offline replay not reproducible (%d differences)", d)
				}
			}
			return err
		})
	}
	o.spans.add(tr)

	// The session loop, untraced then traced; the gap in time per frame
	// is the tracing overhead.
	cpu0 := cpuSeconds()
	t0 := time.Now()
	plain := rig.loop(o.seconds/4, false, o, c)
	wPlain := time.Since(t0).Seconds()
	t0 = time.Now()
	recs := rig.loop(o.seconds/4, true, o, c)
	wTraced := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	all := append(append([]sessionRec{}, plain...), recs...)
	frames := framesOf(all)
	perPlain, perTraced := wPlain/float64(max(framesOf(plain), 1)), wTraced/float64(max(framesOf(recs), 1))
	m["bench.trace_overhead_pct"] = 100 * (perTraced - perPlain) / perPlain
	m["core.cpu_us_per_frame"] = cpu / float64(max(frames, 1)) * 1e6
	m["latency_p90_ms"] = quantile(pick(all, func(r sessionRec) float64 { return r.latency }), 0.9)
	m["latency_p99_ms"] = quantile(pick(all, func(r sessionRec) float64 { return r.latency }), 0.99)

	for class, cm := range byClass {
		var lat []float64
		for _, r := range all {
			if r.class == class {
				lat = append(lat, r.latency)
			}
		}
		m["svc.device_ms."+class] = median(cm["device"])
		m["svc.decode_ms."+class] = median(cm["decode"])
		m["svc.offline_ms."+class] = median(cm["offline"])
		m["svc.session_p50_ms."+class] = median(lat)
		m["svc.overhead_ms."+class] = median(lat) - median(cm["offline"])
	}
	m["svc.create_ms"] = median(pick(all, func(r sessionRec) float64 { return r.create }))
	m["svc.delete_ms"] = median(pick(all, func(r sessionRec) float64 { return r.del }))
	m["svc.transport_ms"] = median(pick(all, func(r sessionRec) float64 { return r.ingest - r.server }))
	var bytesIn, sweepFrames int
	var sub, coal int64
	for _, r := range all {
		bytesIn += r.bytes
		sub += r.submitted
		coal += r.coalesced
		if r.submitted > 0 {
			sweepFrames += r.frames
		}
	}
	m["svc.bytes_per_frame"] = float64(bytesIn) / float64(max(frames, 1))
	if sub > 0 {
		m["batch.coalesced_frac"] = float64(coal) / float64(sub)
		m["batch.submitted_per_frame"] = float64(sub) / float64(max(sweepFrames, 1))
	}
	synthTimes(m)
	return m, c
}

// buildDevice is the per-session deployment cost: compile the trace's
// provenance and build its device.
func buildDevice(data []byte) error {
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	h := r.Header()
	var sp scenario.Spec
	if err := json.Unmarshal(h.Scenario, &sp); err != nil {
		return err
	}
	cell, err := scenario.Compile(&sp, h.DeviceIndex)
	if err != nil {
		return err
	}
	if len(cell.Trajectories) > 1 {
		_, err = core.NewMultiDevice(cell.Config, cell.Subjects[1:]...)
	} else {
		_, err = core.NewDevice(cell.Config)
	}
	return err
}

// decodeAll decodes the whole trace through the pipeline's source stage.
func decodeAll(data []byte) error {
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	src := core.NewTraceSource(r)
	for b := src.Next(); b != nil; b = src.Next() {
		src.Recycle(b)
	}
	return src.Err()
}
