// Command witrack-load soaks a witrack-svc daemon: it replays a trace
// corpus at N concurrent sessions, round after round, until a minimum
// duration has elapsed, then reports sessions × fps (and, for paced
// runs, fix-latency percentiles) as JSON. Every served result is
// checked for determinism — all sessions replaying the same trace must
// agree bit-for-bit — and with -diff the agreed results are compared
// against a witrack-record snapshot (CORPUS.json), closing the live ==
// replay == served parity chain. Both checks judge and print drift with
// scenario.DiffReports.
//
// The JSON report keeps the deterministic part ("replay": the exact
// ReplayReport shape witrack-replay snapshots) separate from the
// wall-clock part ("timing"), so CI can diff the former across runs and
// ignore the latter.
//
// Usage:
//
//	witrack-load -mgmt http://host:port [-sessions n] [-min-duration d]
//	             [-pace] [-json out.json] [-diff CORPUS.json]
//	             [-sweeps]
//	             [trace.wtrace...]
//
// With -pace each stream is spread over its recorded duration, so the
// served lag samples measure real fix latency. Unpaced runs drive the
// daemon flat out, ahead of the recorded frame clock, so they report
// throughput only.
//
// With -sweeps the corpus gains two generated sweep-domain traces (the
// compact scenario.SweepCell and its int16 twin, recorded in memory —
// raw sweeps do not compress well enough to check in): every served
// frame runs the full window + RFFT path. Each trace is replayed
// offline in-process first and that result seeds the determinism
// check, so every served session must match the offline replay
// bit-for-bit.
//
// Exit status: 0 success, 1 session failure, non-deterministic serving,
// or snapshot drift, 2 bad usage.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"witrack/internal/scenario"
	"witrack/internal/svc"
	"witrack/internal/trace"
)

// loadedTrace is one corpus file plus the metadata pacing needs.
type loadedTrace struct {
	name     string
	data     []byte
	frames   int
	duration time.Duration
}

// Timing is the wall-clock half of the load report. Nothing in here is
// expected to be stable across runs.
type Timing struct {
	Sessions     int     `json:"sessions"`
	Concurrency  int     `json:"concurrency"`
	Rounds       int     `json:"rounds"`
	TotalFrames  int     `json:"total_frames"`
	WallSeconds  float64 `json:"wall_seconds"`
	AggregateFPS float64 `json:"aggregate_fps"`
	Paced        bool    `json:"paced"`
	// The fix-latency fields are set by paced runs only (setFixLatency).
	FixLatencyP50  *float64 `json:"fix_latency_ms_p50,omitempty"`
	FixLatencyP99  *float64 `json:"fix_latency_ms_p99,omitempty"`
	LatencySamples int      `json:"latency_samples,omitempty"`
	// IngestBytes is the total compressed trace bytes streamed into the
	// daemon across all sessions; BytesPerFrame and IngestMBps derive
	// the per-frame ingest cost and the aggregate ingest bandwidth —
	// the numbers the quantized int16 encoding cuts roughly 4x.
	IngestBytes   int64   `json:"ingest_bytes"`
	BytesPerFrame float64 `json:"bytes_per_frame"`
	IngestMBps    float64 `json:"ingest_mb_per_s"`
}

// Report is the witrack-load JSON artifact (SVC_LOAD.json in CI).
type Report struct {
	// Replay is deterministic: per-trace results identical to a
	// single-process witrack-replay of the same files.
	Replay scenario.ReplayReport `json:"replay"`
	// Timing is wall-clock measurement; CI ignores it when diffing.
	Timing Timing `json:"timing"`
}

func main() {
	mgmt := flag.String("mgmt", "http://127.0.0.1:7514", "daemon management base URL")
	sessions := flag.Int("sessions", 8, "concurrent sessions per round")
	minDuration := flag.Duration("min-duration", 0, "keep launching rounds until this much wall time has elapsed")
	pace := flag.Bool("pace", false, "pace each stream over its recorded duration (real fix latency)")
	jsonPath := flag.String("json", "", "write the machine-readable load report to this path")
	diffPath := flag.String("diff", "", "compare served replay results against this snapshot (CORPUS.json) and fail on drift")
	sweeps := flag.Bool("sweeps", false, "add a generated sweep-domain trace whose served results must match its offline replay")
	flag.Parse()
	if flag.NArg() == 0 && !*sweeps {
		fmt.Fprintln(os.Stderr, "witrack-load: no trace files given (and -sweeps not set)")
		flag.Usage()
		os.Exit(2)
	}
	if *sessions < 1 {
		fmt.Fprintln(os.Stderr, "witrack-load: -sessions must be at least 1")
		os.Exit(2)
	}

	// agreed[trace name] is the reference result for that trace; every
	// served session must match it bit-for-bit.
	agreed := make(map[string]*scenario.ReplayResult)

	traces := make([]loadedTrace, flag.NArg())
	for i, path := range flag.Args() {
		lt, err := loadTrace(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "witrack-load: %s: %v\n", path, err)
			os.Exit(1)
		}
		traces[i] = lt
	}
	if *sweeps {
		// Both sweep encodings soak: the float64 cell and its quantized
		// int16 twin, so the int16 sum-then-dequantize ingest path is
		// exercised alongside the full-precision one.
		for _, sp := range []scenario.Spec{scenario.SweepCell(), scenario.SweepCellInt16()} {
			lt, offline, err := genSweepTrace(sp)
			if err != nil {
				fmt.Fprintf(os.Stderr, "witrack-load: generating sweep trace %s: %v\n", sp.Name, err)
				os.Exit(1)
			}
			// Seed the determinism check with the in-process offline replay:
			// served-vs-offline parity becomes an assertion, not just
			// served-vs-served agreement.
			offline.Trace = lt.name
			agreed[lt.name] = offline
			traces = append(traces, lt)
			fmt.Printf("witrack-load: generated %s (%d sweep-domain frames, %.1f KiB), offline reference computed\n",
				lt.name, lt.frames, float64(len(lt.data))/1024)
		}
	}

	client := &svc.Client{Mgmt: *mgmt}
	info, err := client.Info()
	if err != nil {
		fmt.Fprintln(os.Stderr, "witrack-load: daemon unreachable:", err)
		os.Exit(1)
	}
	fmt.Printf("witrack-load: daemon at %s (ingest %s, pool %d), %d traces, %d sessions/round\n",
		*mgmt, info.IngestAddr, info.PoolSize, len(traces), *sessions)

	var lagMS []float64
	timing := Timing{Concurrency: *sessions, Paced: *pace}
	start := time.Now()

	for round := 1; timing.Rounds == 0 || time.Since(start) < *minDuration; round++ {
		results, summaries, err := runRound(client, info.IngestAddr, traces, *sessions, *pace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "witrack-load:", err)
			os.Exit(1)
		}
		timing.Rounds = round
		timing.Sessions += *sessions
		for i, res := range results {
			name := traces[i%len(traces)].name
			timing.TotalFrames += res.Frames
			timing.IngestBytes += int64(len(traces[i%len(traces)].data))
			res.Trace = name
			if w, ok := agreed[name]; !ok {
				agreed[name] = res
			} else if n := diffResult(os.Stderr, w, res); n > 0 {
				fmt.Fprintf(os.Stderr, "witrack-load: %s served non-deterministically in round %d: %d difference(s)\n", name, round, n)
				os.Exit(1)
			}
		}
		for _, sum := range summaries {
			if sum.Timing != nil {
				lagMS = append(lagMS, sum.Timing.LagMS...)
			}
		}
	}

	timing.WallSeconds = time.Since(start).Seconds()
	if timing.WallSeconds > 0 {
		timing.AggregateFPS = float64(timing.TotalFrames) / timing.WallSeconds
	}
	timing.setFixLatency(lagMS)
	if timing.TotalFrames > 0 {
		timing.BytesPerFrame = float64(timing.IngestBytes) / float64(timing.TotalFrames)
	}
	if timing.WallSeconds > 0 {
		timing.IngestMBps = float64(timing.IngestBytes) / 1e6 / timing.WallSeconds
	}

	var report Report
	report.Timing = timing
	names := make([]string, 0, len(agreed))
	for name := range agreed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		report.Replay.Traces = append(report.Replay.Traces, *agreed[name])
	}

	fmt.Printf("witrack-load: %d sessions over %d rounds in %.1fs — %d frames, %.1f fps aggregate",
		timing.Sessions, timing.Rounds, timing.WallSeconds, timing.TotalFrames, timing.AggregateFPS)
	if timing.FixLatencyP50 != nil {
		fmt.Printf(", fix latency p50 %.1f ms / p99 %.1f ms", *timing.FixLatencyP50, *timing.FixLatencyP99)
	}
	fmt.Printf(" (paced=%v)\n", timing.Paced)
	fmt.Printf("witrack-load: ingested %.1f MB (%.0f bytes/frame, %.2f MB/s)\n",
		float64(timing.IngestBytes)/1e6, timing.BytesPerFrame, timing.IngestMBps)

	if *jsonPath != "" {
		data, err := json.MarshalIndent(&report, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "witrack-load:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}

	if *diffPath != "" {
		snap, err := scenario.LoadReport(*diffPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "witrack-load:", err)
			os.Exit(1)
		}
		if n := scenario.DiffReports(os.Stderr, snap, &report.Replay); n > 0 {
			fmt.Fprintf(os.Stderr, "witrack-load: %d difference(s) against snapshot %s\n", n, *diffPath)
			os.Exit(1)
		}
		fmt.Printf("served results match snapshot %s (%d traces)\n", *diffPath, len(report.Replay.Traces))
	}
}

// genSweepTrace records the given sweep cell into memory and replays
// it offline in-process, returning both the trace and the reference
// result every served session must reproduce bit-for-bit.
func genSweepTrace(sp scenario.Spec) (loadedTrace, *scenario.ReplayResult, error) {
	var buf bytes.Buffer
	frames, _, err := scenario.RecordCellSweeps(&sp, 0, &buf)
	if err != nil {
		return loadedTrace{}, nil, err
	}
	res, err := scenario.ReplayTrace(context.Background(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		return loadedTrace{}, nil, fmt.Errorf("offline reference replay: %w", err)
	}
	tr, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return loadedTrace{}, nil, err
	}
	return loadedTrace{
		name:     sp.Name + ".wtrace",
		data:     buf.Bytes(),
		frames:   frames,
		duration: time.Duration(float64(frames) * tr.Header().Interval * float64(time.Second)),
	}, res, nil
}

// runRound drives one round of n concurrent sessions, round-robin over
// the traces, and returns each session's result and summary in launch
// order. Sessions are deleted afterwards so long soaks never hit the
// daemon's session cap.
func runRound(client *svc.Client, ingestAddr string, traces []loadedTrace, n int, pace bool) ([]*scenario.ReplayResult, []*svc.CloseSummary, error) {
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		lt := traces[i%len(traces)]
		stats, err := client.CreateSession(svc.CreateRequest{Name: lt.name})
		if err != nil {
			return nil, nil, fmt.Errorf("creating session: %w", err)
		}
		ids[i] = stats.ID
	}
	defer func() {
		for _, id := range ids {
			client.DeleteSession(id)
		}
	}()

	results := make([]*scenario.ReplayResult, n)
	summaries := make([]*svc.CloseSummary, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lt := traces[i%len(traces)]
			opts := svc.IngestOptions{}
			if pace {
				opts.PaceOver = lt.duration
			}
			sum, err := svc.IngestTCP(ingestAddr, ids[i], lt.data, opts)
			if err != nil {
				errs[i] = fmt.Errorf("session %s (%s): %w", ids[i], lt.name, err)
				return
			}
			if !sum.OK {
				errs[i] = fmt.Errorf("session %s (%s) failed: %s", ids[i], lt.name, sum.Error)
				return
			}
			results[i] = sum.Result
			summaries[i] = sum
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return results, summaries, nil
}

// loadTrace reads a .wtrace and scans it once to learn its frame count
// and recorded duration (for pacing).
func loadTrace(path string) (loadedTrace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return loadedTrace{}, err
	}
	tr, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return loadedTrace{}, err
	}
	frames := 0
	if tr.Header().Sample == trace.SampleInt16 {
		var dst [][]int16
		for {
			if dst, _, err = tr.ReadFrameInt16Into(dst, nil); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				return loadedTrace{}, err
			}
			frames++
		}
	} else {
		for {
			if _, _, err := tr.ReadFrameTruthsInto(nil, nil); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				return loadedTrace{}, err
			}
			frames++
		}
	}
	return loadedTrace{
		name:     filepath.Base(path),
		data:     data,
		frames:   frames,
		duration: time.Duration(float64(frames) * tr.Header().Interval * float64(time.Second)),
	}, nil
}

// diffResult prints every difference between two results for one
// trace, as witrack-replay -diff judges a snapshot, and returns how many
// it found. Both results must carry the trace name.
func diffResult(w io.Writer, want, got *scenario.ReplayResult) int {
	return scenario.DiffReports(w,
		&scenario.ReplayReport{Traces: []scenario.ReplayResult{*want}},
		&scenario.ReplayReport{Traces: []scenario.ReplayResult{*got}})
}

// setFixLatency fills the fix-latency fields from the served lag
// samples of a paced run. An unpaced stream runs ahead of its recorded
// frame clock, so its lag is no latency (it reads negative): unpaced
// runs, and runs without samples, leave the fields unset.
func (t *Timing) setFixLatency(lagMS []float64) {
	if !t.Paced || len(lagMS) == 0 {
		return
	}
	p50, p99 := percentile(lagMS, 50), percentile(lagMS, 99)
	t.FixLatencyP50, t.FixLatencyP99, t.LatencySamples = &p50, &p99, len(lagMS)
}

// percentile returns the nearest-rank p-th percentile of a non-empty
// sample.
func percentile(samples []float64, p float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(float64(len(sorted))*p/100+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
