package core

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"witrack/internal/dsp"
	"witrack/internal/motion"
	"witrack/internal/trace"
)

// batchTestSpan builds one frame's span of count random n-sample
// sweeps — int16 ADC codes when quantized, float64 samples otherwise —
// with a dst sized for it, and returns it together with the reference
// it must reproduce: sequential RealTransform calls on the (dequantized)
// sweeps.
func batchTestSpan(rng *rand.Rand, plan *dsp.Plan, window []float64, count int, quantized bool) (dsp.RFFTSpan, []complex128) {
	n := plan.Size()
	const scale = 1.0 / (1 << 13)
	sp := dsp.RFFTSpan{Dst: make([]complex128, count*(n/2+1)), Window: window}
	var want []complex128
	for i := 0; i < count; i++ {
		sw := make([]float64, n)
		if quantized {
			codes := make([]int16, n)
			for j := range codes {
				codes[j] = int16(rng.Intn(1<<14) - 1<<13)
				sw[j] = float64(codes[j]) * scale
			}
			sp.SweepsI16 = append(sp.SweepsI16, codes)
			sp.Scale = scale
		} else {
			for j := range sw {
				sw[j] = rng.NormFloat64()
			}
			sp.Sweeps = append(sp.Sweeps, sw)
		}
		want = append(want, plan.RealTransform(nil, sw, window)...)
	}
	return sp, want
}

// TestBatchSchedulerBitIdentical drives several clients through a
// shared scheduler in concurrent rounds and requires every combined
// call to leave each client's dst bit-identical to transforming its
// sweeps one at a time — and the rounds to actually coalesce across
// clients (the scheduler may never buy its speedup by changing bits,
// and this test would be vacuous if nothing ever batched). Half the
// clients submit int16 ADC codes, so every full round's group mixes
// encodings.
func TestBatchSchedulerBitIdentical(t *testing.T) {
	const (
		n         = 128
		clients   = 4
		rounds    = 25
		perFrame  = 8
		maxBatch  = clients * perFrame
		gatherWin = 20 * time.Millisecond
	)
	plan := dsp.PlanFor(n)
	window := dsp.Hann(n)
	rng := rand.New(rand.NewSource(99))

	type frameJob struct {
		span dsp.RFFTSpan
		want []complex128
	}
	jobs := make([][]frameJob, clients)
	for c := range jobs {
		jobs[c] = make([]frameJob, rounds)
		for f := range jobs[c] {
			sp, want := batchTestSpan(rng, plan, window, perFrame, c%2 == 1)
			jobs[c][f] = frameJob{span: sp, want: want}
		}
	}

	s := NewBatchScheduler(gatherWin, maxBatch)
	cls := make([]*BatchClient, clients)
	for c := range cls {
		cls[c] = s.NewClient()
	}

	// Round-based launch: all clients submit one frame concurrently,
	// then join. A full round seals by segment count; a straggler round
	// seals by the (generous) gather window.
	for f := 0; f < rounds; f++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cls[c].RFFT(plan, jobs[c][f].span)
			}(c)
		}
		wg.Wait()
		for c := 0; c < clients; c++ {
			got := jobs[c][f].span.Dst
			for k, want := range jobs[c][f].want {
				if got[k] != want {
					t.Fatalf("round %d client %d bin %d diverged: batched %v, sequential %v",
						f, c, k, got[k], want)
				}
			}
		}
	}

	var submitted, coalesced int64
	for c, cl := range cls {
		sub, co := cl.Stats()
		if sub != rounds {
			t.Fatalf("client %d submitted %d transforms, want %d", c, sub, rounds)
		}
		submitted += sub
		coalesced += co
	}
	batches, multi := s.Stats()
	t.Logf("%d submissions in %d combined calls (%d multi-client); %d rode a multi-session batch",
		submitted, batches, multi, coalesced)
	if batches == 0 || coalesced == 0 || multi == 0 {
		t.Fatalf("concurrent rounds never coalesced across clients (batches=%d multi=%d coalesced=%d)",
			batches, multi, coalesced)
	}
}

// TestBatchSchedulerLoneClient pins the lone-session degenerate case: a
// single client's group times out with one span, float64 or int16, the
// result is bit-identical to transforming its sweeps one at a time, and
// nothing counts as coalesced.
func TestBatchSchedulerLoneClient(t *testing.T) {
	const n = 64
	plan := dsp.PlanFor(n)
	window := dsp.Hann(n)
	rng := rand.New(rand.NewSource(7))

	cl := NewBatchScheduler(0, 0).NewClient()
	for _, quantized := range []bool{false, true} {
		sp, want := batchTestSpan(rng, plan, window, 5, quantized)
		cl.RFFT(plan, sp)
		for k := range want {
			if sp.Dst[k] != want[k] {
				t.Fatalf("quantized=%v bin %d diverged: scheduled %v, sequential %v", quantized, k, sp.Dst[k], want[k])
			}
		}
	}
	if sub, co := cl.Stats(); sub != 2 || co != 0 {
		t.Fatalf("lone client stats (submitted=%d, coalesced=%d), want (2, 0)", sub, co)
	}
}

// compactSweepConfig is a SlowSynth deployment small enough that the
// time-domain path is cheap in tests: a reduced sample rate shrinks a
// sweep to 320 samples (FFT size 512) while the beat spectrum of the
// trimmed 11 m range stays far inside Nyquist.
func compactSweepConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.SlowSynth = true
	cfg.Radio.SampleRate = 128e3
	cfg.Radio.MaxRange = 11
	cfg.Radio.SweepsPerFrame = 4
	return cfg
}

// TestSweepTraceRoundTrip closes the sweep-domain parity chain: a
// SlowSynth run is captured as raw sweeps (RecordTo under a
// SweepTraceHeader), replayed
// through the full window + RFFT + averaging path on a fresh device,
// and must reproduce the live run bit for bit — once with private
// transforms and once routed through a cross-session BatchScheduler.
func TestSweepTraceRoundTrip(t *testing.T) {
	cfg := compactSweepConfig(33)
	traj := motion.NewRandomWalk(motion.DefaultWalkConfig(
		motion.Region{XMin: -2, XMax: 2, YMin: 3, YMax: 6},
		cfg.Subject.CenterHeight(), 0.5, cfg.Seed+100))

	liveDev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := goldenHash(drain(liveDev.Stream(context.Background(), traj)))

	recDev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, recDev.SweepTraceHeader())
	if err != nil {
		t.Fatal(err)
	}
	frames, err := recDev.RecordTo(tw, traj)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if frames == 0 {
		t.Fatal("sweep recording captured no frames")
	}

	replay := func(batch *BatchClient) uint64 {
		t.Helper()
		r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		dev, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev.Batch = batch
		src := NewTraceSource(r)
		ch, err := dev.StreamFrom(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		h := goldenHash(drain(ch))
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
		return h
	}

	if got := replay(nil); got != live {
		t.Fatalf("sweep-trace replay diverged from the live run: digest %#x, want %#x", got, live)
	}
	cl := NewBatchScheduler(0, 0).NewClient()
	if got := replay(cl); got != live {
		t.Fatalf("scheduled sweep-trace replay diverged from the live run: digest %#x, want %#x", got, live)
	}
	if sub, _ := cl.Stats(); sub == 0 {
		t.Fatal("scheduled replay never routed a transform through the batch client")
	}
}

// TestRecordSweepsRequiresSlowSynth pins the fast-path refusal: the
// spectral-synthesis path never materializes time-domain sweeps, so
// recording into a sweep-domain writer must fail loudly instead of
// writing an empty trace — on both device kinds.
func TestRecordSweepsRequiresSlowSynth(t *testing.T) {
	cfg := compactSweepConfig(34)
	cfg.SlowSynth = false
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traj := motion.NewRandomWalk(motion.DefaultWalkConfig(
		motion.Region{XMin: -2, XMax: 2, YMin: 3, YMax: 6},
		cfg.Subject.CenterHeight(), 0.2, cfg.Seed+100))
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, dev.SweepTraceHeader())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.RecordTo(tw, traj); err == nil {
		t.Fatal("RecordTo accepted a sweep-domain writer on a fast-synthesis device")
	}
	multi, err := NewMultiDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := multi.RecordTo(tw, traj); err == nil {
		t.Fatal("MultiDevice.RecordTo accepted a sweep-domain writer on a fast-synthesis device")
	}
}
