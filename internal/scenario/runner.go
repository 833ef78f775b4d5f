package scenario

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"sync"
	"time"

	"witrack/internal/body"
	"witrack/internal/core"
	"witrack/internal/fault"
	"witrack/internal/motion"
)

// warmupSeconds is skipped before error statistics accumulate: the
// trackers need a couple of seconds to acquire (the experiments use the
// same cutoff).
const warmupSeconds = 2.0

// Options tunes the fleet runner.
type Options struct {
	// Parallel bounds the number of scenario × device cells in flight
	// at once; 0 means GOMAXPROCS. Each cell owns its devices outright,
	// so cells are data-race free by construction; the per-size FFT
	// plan cache (dsp.PlanFor) is the only shared state and is
	// concurrency-safe.
	Parallel int
	// Timing includes wall-clock throughput (frames/sec per device) in
	// the results. Off by default: timing varies run to run, and the
	// default report must be byte-identical across runs for CI's
	// determinism gate.
	Timing bool
	// Cells, when non-nil, restricts the matrix to the cells whose key
	// "<scenario>/<deviceIndex>" matches — the sharding hook that lets
	// CI split the N×M matrix across parallel jobs. Scenarios with no
	// matching cell are omitted from the report; scenarios with a
	// partial fleet aggregate over the selected cells only.
	Cells *regexp.Regexp
}

// CellKey renders the matrix coordinate Options.Cells matches against.
func CellKey(scenario string, deviceIndex int) string {
	return fmt.Sprintf("%s/%d", scenario, deviceIndex)
}

// DeviceResult is one scenario × device cell of the matrix.
type DeviceResult struct {
	// Device is the placement index within the scenario.
	Device int `json:"device"`
	// Separation/Height echo the placement for readability.
	Separation float64 `json:"separation"`
	Height     float64 `json:"height"`
	// Frames is the number of frames the cell processed.
	Frames int `json:"frames"`
	// Metrics holds the cell's own metric values.
	Metrics Metrics `json:"metrics"`
	// FPS is wall-clock frames/sec (only with Options.Timing).
	FPS float64 `json:"fps,omitempty"`
}

// Result is one scenario's outcome across its device fleet.
type Result struct {
	Name        string         `json:"name"`
	Description string         `json:"description,omitempty"`
	Devices     []DeviceResult `json:"devices"`
	// Metrics are the scenario-level aggregates (raw samples pooled
	// across devices, then summarized — not an average of averages).
	Metrics    Metrics           `json:"metrics"`
	Assertions []AssertionResult `json:"assertions,omitempty"`
	Pass       bool              `json:"pass"`
}

// Report is the full matrix outcome — the SCENARIOS.json artifact.
type Report struct {
	Scenarios []Result `json:"scenarios"`
	// Failed lists the names of scenarios with failing assertions.
	Failed []string `json:"failed,omitempty"`
	Pass   bool     `json:"pass"`
}

// cellOutcome carries one cell's raw samples for cross-device pooling
// alongside its rendered DeviceResult.
type cellOutcome struct {
	res DeviceResult

	errX, errY, errZ, err3 []float64
	err2                   []float64
	valid, frames          int

	// Robustness accounting (tallied on every tracking cell; rendered
	// into metrics only when withFaults is set, so fault-free reports
	// stay byte-identical). An outage is a run of invalid samples after
	// first acquisition; its length in frames is the reacquisition
	// latency once a fix returns.
	withFaults   bool
	degraded     int       // valid fixes solved on a reduced antenna set
	outageSpans  int       // distinct invalid runs after first acquisition
	outageFrames int       // invalid frames after first acquisition
	reacquire    []float64 // per-completed-outage reacquisition latency, frames
	faults       fault.Stats

	fall  *FallStudyOutcome
	point *PointingOutcome

	// onFix, when non-nil, sees every fix as it is scored (see
	// ReplayOptions.Observe).
	onFix func(ReplayFix)
}

// observe feeds one sample's fix into the robustness tallies and the
// onFix hook. acquired/outage are the caller's loop state: whether a
// first fix has happened, and the length of the current invalid run.
func (out *cellOutcome) observe(fix ReplayFix, acquired *bool, outage *int) {
	if out.onFix != nil {
		out.onFix(fix)
	}
	if !fix.Valid {
		if *acquired {
			if *outage == 0 {
				out.outageSpans++
			}
			out.outageFrames++
			*outage++
		}
		return
	}
	if *outage > 0 {
		out.reacquire = append(out.reacquire, float64(*outage))
		*outage = 0
	}
	*acquired = true
	if fix.Degraded {
		out.degraded++
	}
}

// recordFaults attaches the injector's counters to a finished cell and
// re-renders its metrics with the robustness vocabulary included.
func (out *cellOutcome) recordFaults(st fault.Stats) {
	out.withFaults = true
	out.faults = st
	out.res.Metrics = trackingMetrics(out)
}

// Run executes the matrix of scenarios × devices on a bounded worker
// pool and aggregates per-scenario metrics and assertion verdicts.
// Every cell derives its seeds deterministically from its spec, so the
// report (minus Timing) is identical across runs.
func Run(ctx context.Context, specs []Spec, opts Options) (*Report, error) {
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}

	type cellKey struct{ spec, device int }
	var keys []cellKey
	for si := range specs {
		for di := 0; di < specs[si].deviceCount(); di++ {
			if opts.Cells != nil && !opts.Cells.MatchString(CellKey(specs[si].Name, di)) {
				continue
			}
			keys = append(keys, cellKey{si, di})
		}
	}
	if len(keys) == 0 && opts.Cells != nil {
		return nil, fmt.Errorf("scenario: no cells match the filter %v", opts.Cells)
	}

	outcomes := make(map[cellKey]*cellOutcome, len(keys))
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, parallel)
	for _, key := range keys {
		key := key
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if cctx.Err() != nil {
				return
			}
			out, err := runCell(cctx, &specs[key.spec], key.device, opts.Timing)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("scenario %q device %d: %w", specs[key.spec].Name, key.device, err)
					cancel()
				}
				return
			}
			outcomes[key] = out
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &Report{Pass: true}
	for si := range specs {
		sp := &specs[si]
		var cells []*cellOutcome
		for di := 0; di < sp.deviceCount(); di++ {
			if out, ok := outcomes[cellKey{si, di}]; ok {
				cells = append(cells, out)
			}
		}
		if len(cells) == 0 {
			continue // every cell filtered out by Options.Cells
		}
		res := aggregate(sp, cells)
		if !res.Pass {
			rep.Pass = false
			rep.Failed = append(rep.Failed, sp.Name)
		}
		rep.Scenarios = append(rep.Scenarios, res)
	}
	return rep, nil
}

// runCell executes one scenario × device cell.
func runCell(ctx context.Context, sp *Spec, deviceIndex int, timing bool) (*cellOutcome, error) {
	ds := sp.device(deviceIndex)
	out := &cellOutcome{res: DeviceResult{
		Device:     deviceIndex,
		Separation: ds.Separation,
		Height:     ds.Height,
	}}
	if out.res.Separation == 0 {
		out.res.Separation = defaultSeparation
	}
	if out.res.Height == 0 {
		out.res.Height = defaultHeight
	}

	start := time.Now()
	var err error
	switch sp.Bodies[0].Motion.Kind {
	case MotionFallStudy:
		out.fall, err = RunFallStudy(ctx, sp, deviceIndex)
		if err == nil {
			out.res.Metrics = out.fall.metrics()
			out.res.Frames = out.fall.Frames
		}
	case MotionPointingStudy:
		out.point, err = RunPointingStudy(ctx, sp, deviceIndex)
		if err == nil {
			out.res.Metrics = out.point.metrics()
			out.res.Frames = out.point.Frames
		}
	default:
		err = runTrackingCell(ctx, sp, deviceIndex, out)
	}
	if err != nil {
		return nil, err
	}
	if timing && out.res.Frames > 0 {
		if secs := time.Since(start).Seconds(); secs > 0 {
			out.res.FPS = float64(out.res.Frames) / secs
		}
	}
	return out, nil
}

// runTrackingCell streams the cell's trajectory (or one trajectory per
// person on a k-person cell) through the pipeline and collects
// localization errors.
func runTrackingCell(ctx context.Context, sp *Spec, deviceIndex int, out *cellOutcome) error {
	c, err := Compile(sp, deviceIndex)
	if err != nil {
		return err
	}
	dev, _, err := newCellDevice(c)
	if err != nil {
		return err
	}
	// The cell consumes Stream — the production API — rather than the
	// batch Run, so the scenario matrix exercises exactly the code path
	// a live deployment uses.
	switch d := dev.(type) {
	case *core.MultiDevice:
		ch, err := d.Stream(ctx, c.Trajectories...)
		if err != nil {
			return err
		}
		scoreMultiStream(ch, out)
	case *core.Device:
		scoreTrackingStream(d.Stream(ctx, c.Trajectories[0]), c, out)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.Faults != nil {
		out.recordFaults(dev.FaultStats())
	}
	return nil
}

// scoreTrackingStream drains a sample stream and accumulates the cell's
// localization errors and metrics. It is shared between live synthesis
// cells and trace replays, so both paths score byte-identically.
func scoreTrackingStream(ch <-chan core.Sample, c *Compiled, out *cellOutcome) {
	acquired, outage := false, 0
	for s := range ch {
		out.frames++
		out.observe(ReplayFix{T: s.T, Pos: s.Pos, Valid: s.Valid, Degraded: s.Degraded}, &acquired, &outage)
		if !s.Valid {
			continue
		}
		out.valid++
		if s.T < warmupSeconds {
			continue
		}
		est := body.CompensateSurfaceDepth(s.Pos, c.Config.Array.Tx, c.Config.Subject.SurfaceDepth)
		out.errX = append(out.errX, math.Abs(est.X-s.Truth.X))
		out.errY = append(out.errY, math.Abs(est.Y-s.Truth.Y))
		out.errZ = append(out.errZ, math.Abs(est.Z-s.Truth.Z))
		out.err3 = append(out.err3, est.Dist(s.Truth))
	}
	out.res.Frames = out.frames
	out.res.Metrics = trackingMetrics(out)
}

// scoreMultiStream drains a k-person sample stream and accumulates the
// cell's per-person plan-view errors under the per-frame optimal
// assignment (an OSPA-style metric: the radio has no identities, so
// every frame is scored against the best of the k! output-to-truth
// permutations). Shared between live multi-person cells and trace
// replays, so both paths score byte-identically.
func scoreMultiStream(ch <-chan core.MultiSample, out *cellOutcome) {
	acquired, outage := false, 0
	for s := range ch {
		out.frames++
		fix := ReplayFix{T: s.T, Valid: s.Valid, Degraded: s.Degraded}
		if len(s.Pos) > 0 {
			fix.Pos = s.Pos[0]
		}
		out.observe(fix, &acquired, &outage)
		if !s.Valid {
			continue
		}
		out.valid++
		if s.T < warmupSeconds+1 {
			continue
		}
		// A frame without full ground truth (legal in the trace format)
		// cannot be error-scored; skipping it keeps a truth-stripped
		// trace from reporting a vacuous zero error.
		if len(s.Truth) < len(s.Pos) {
			continue
		}
		out.err2 = append(out.err2, optimalAssignmentError(s))
	}
	out.res.Frames = out.frames
	out.res.Metrics = trackingMetrics(out)
}

// optimalAssignmentError returns the mean per-person plan-view error of
// the sample under the best output-to-truth permutation, enumerated in
// lexicographic order (for k=2 this reproduces the historical
// min(direct, swapped) scoring bit for bit).
func optimalAssignmentError(s core.MultiSample) float64 {
	k := len(s.Pos)
	if len(s.Truth) < k {
		k = len(s.Truth)
	}
	if k == 0 {
		return 0
	}
	used := make([]bool, k)
	best := math.Inf(1)
	var walk func(i int, sum float64)
	walk = func(i int, sum float64) {
		if i == k {
			if m := sum / float64(k); m < best {
				best = m
			}
			return
		}
		for j := 0; j < k; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			walk(i+1, sum+s.Pos[i].XY().Dist(s.Truth[j].XY()))
			used[j] = false
		}
	}
	walk(0, 0)
	return best
}

// trackingMetrics summarizes one cell's (or one pooled scenario's)
// error samples.
func trackingMetrics(out *cellOutcome) Metrics {
	m := Metrics{
		"frames":     float64(out.frames),
		"valid_frac": 0,
	}
	if out.frames > 0 {
		m["valid_frac"] = float64(out.valid) / float64(out.frames)
	}
	if len(out.err3) > 0 {
		m["samples"] = float64(len(out.err3))
		m["median_err_x_cm"] = median(out.errX) * 100
		m["median_err_y_cm"] = median(out.errY) * 100
		m["median_err_z_cm"] = median(out.errZ) * 100
		m["p90_err_x_cm"] = percentile(out.errX, 90) * 100
		m["p90_err_y_cm"] = percentile(out.errY, 90) * 100
		m["p90_err_z_cm"] = percentile(out.errZ, 90) * 100
		m["median_err_3d_cm"] = median(out.err3) * 100
	}
	if len(out.err2) > 0 {
		m["samples"] = float64(len(out.err2))
		m["median_err_2d_cm"] = median(out.err2) * 100
	}
	// The robustness vocabulary appears only on chaos cells, so
	// fault-free reports stay byte-identical to the pre-fault era.
	if out.withFaults {
		m["fault_dropped_frames"] = float64(out.faults.DroppedFrames)
		m["fault_injected_frames"] = float64(out.faults.InjectedFrames())
		m["degraded_fix_frac"] = 0
		if out.valid > 0 {
			m["degraded_fix_frac"] = float64(out.degraded) / float64(out.valid)
		}
		m["outage_spans"] = float64(out.outageSpans)
		m["outage_frames"] = float64(out.outageFrames)
		m["reacquire_mean_frames"] = 0
		m["reacquire_max_frames"] = 0
		if len(out.reacquire) > 0 {
			sum, max := 0.0, 0.0
			for _, r := range out.reacquire {
				sum += r
				if r > max {
					max = r
				}
			}
			m["reacquire_mean_frames"] = sum / float64(len(out.reacquire))
			m["reacquire_max_frames"] = max
		}
	}
	return m
}

// aggregate pools the fleet's cells into the scenario-level result and
// evaluates the assertions against the pooled metrics.
func aggregate(sp *Spec, cells []*cellOutcome) Result {
	res := Result{Name: sp.Name, Description: sp.Description}
	pooled := &cellOutcome{}
	for _, c := range cells {
		res.Devices = append(res.Devices, c.res)
		pooled.frames += c.frames
		pooled.valid += c.valid
		pooled.errX = append(pooled.errX, c.errX...)
		pooled.errY = append(pooled.errY, c.errY...)
		pooled.errZ = append(pooled.errZ, c.errZ...)
		pooled.err3 = append(pooled.err3, c.err3...)
		pooled.err2 = append(pooled.err2, c.err2...)
		if c.withFaults {
			pooled.withFaults = true
			pooled.degraded += c.degraded
			pooled.outageSpans += c.outageSpans
			pooled.outageFrames += c.outageFrames
			pooled.reacquire = append(pooled.reacquire, c.reacquire...)
			pooled.faults.DroppedFrames += c.faults.DroppedFrames
			pooled.faults.DarkFrames += c.faults.DarkFrames
			pooled.faults.NaNFrames += c.faults.NaNFrames
			pooled.faults.SpikeFrames += c.faults.SpikeFrames
			pooled.faults.StuckFrames += c.faults.StuckFrames
		}
		if c.fall != nil {
			if pooled.fall == nil {
				pooled.fall = &FallStudyOutcome{
					Detected: map[motion.Activity]int{},
					Total:    map[motion.Activity]int{},
				}
			}
			pooled.fall.merge(c.fall)
		}
		if c.point != nil {
			if pooled.point == nil {
				pooled.point = &PointingOutcome{}
			}
			pooled.point.merge(c.point)
		}
	}
	switch {
	case pooled.fall != nil:
		res.Metrics = pooled.fall.metrics()
	case pooled.point != nil:
		res.Metrics = pooled.point.metrics()
	default:
		res.Metrics = trackingMetrics(pooled)
	}
	res.Assertions = evaluate(sp.Expect, res.Metrics)
	res.Pass = true
	for _, a := range res.Assertions {
		if !a.Pass {
			res.Pass = false
		}
	}
	return res
}
