package core

import (
	"bytes"
	"context"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"witrack/internal/motion"
	"witrack/internal/trace"
)

// goldenHash folds a sample stream into a 64-bit FNV-1a hash over the
// raw float64 bits, so any single-bit divergence anywhere in the run
// changes the digest.
func goldenHash(samples []Sample) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, s := range samples {
		put(s.T)
		put(s.Pos.X)
		put(s.Pos.Y)
		put(s.Pos.Z)
		if s.Valid {
			put(1)
		} else {
			put(0)
		}
	}
	return h.Sum64()
}

// TestGoldenPipelineBitIdentical pins the full fast-path pipeline output
// to digests captured from the pre-plan implementation (the seed of this
// PR, before the planned FFT engine, the workspace-reusing solver, and
// the zero-allocation hot path went in). Every optimization in that
// stack was required to be arithmetic-order preserving; if any of them
// perturbs a single output bit on these fixed seeds, this test fails.
func TestGoldenPipelineBitIdentical(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The digests were captured on amd64; on architectures where the
		// compiler fuses multiply-adds (arm64) the low-order bits differ
		// legitimately. They are also a function of the Go toolchain's
		// math library (captured with go1.22) — if a toolchain bump
		// shifts math.Sincos/cmplx.Abs low-order bits, re-capture the
		// digests rather than hunting a pipeline regression. The
		// arch- and toolchain-independent bit-exactness properties are
		// covered by the pipeline-vs-serial tests.
		t.Skipf("golden digests are amd64-specific (GOARCH=%s)", runtime.GOARCH)
	}
	cases := []struct {
		seed     int64
		duration float64
		frames   int
		hash     uint64
	}{
		{seed: 1, duration: 10, frames: 801, hash: 0xe12f7acfecfe9912},
		{seed: 7, duration: 6, frames: 481, hash: 0xc82ae4c22dde2b66},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.Seed = c.seed
		dev, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		walk := motion.NewRandomWalk(motion.DefaultWalkConfig(testRegion(), 0.96, c.duration, c.seed+1))
		res := dev.Run(walk)
		if res.Frames != c.frames {
			t.Fatalf("seed %d: %d frames, golden run had %d", c.seed, res.Frames, c.frames)
		}
		if got := goldenHash(res.Samples); got != c.hash {
			t.Fatalf("seed %d: output hash %#016x != golden %#016x — the pipeline is no longer bit-identical to the pre-plan implementation", c.seed, got, c.hash)
		}
	}
}

// TestSlowSynthPipelineMatchesSerial extends the pipeline-vs-serial
// bit-exactness property to the time-domain sweep path: deferring the
// window + real-input FFT + averaging into the per-antenna workers (the
// source only draws the RNG-ordered sweeps) must not perturb a single
// output bit relative to the fully serial slow-synthesis loop.
func TestSlowSynthPipelineMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("slow synthesis path")
	}
	mk := func() *Device {
		cfg := DefaultConfig()
		cfg.Seed = 17
		cfg.SlowSynth = true
		dev, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	traj := testWalk(2, 5)
	want := serialRun(mk(), traj)
	for _, workers := range []int{0, 1} {
		dev := mk()
		dev.Workers = workers
		res := dev.Run(traj)
		if res.Frames != len(want) {
			t.Fatalf("workers=%d: %d frames, serial produced %d", workers, res.Frames, len(want))
		}
		for i := range want {
			if res.Samples[i] != want[i] {
				t.Fatalf("workers=%d sample %d diverged:\n  pipeline %+v\n  serial   %+v", workers, i, res.Samples[i], want[i])
			}
		}
	}
}

// recordTraceBytes captures the trajectory on a fresh device into an
// in-memory .wtrace opened with the device's header (TraceHeader or
// SweepTraceHeader) and returns its bytes.
func recordTraceBytes(t *testing.T, cfg Config, header func(*Device) trace.Header, traj motion.Trajectory) []byte {
	t.Helper()
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, header(dev))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.RecordTo(tw, traj); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayTraceBytes streams a .wtrace through a fresh device.
func replayTraceBytes(t *testing.T, cfg Config, data []byte) []Sample {
	t.Helper()
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	src := NewTraceSource(tr)
	ch, err := dev.StreamFrom(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	var out []Sample
	for s := range ch {
		out = append(out, s)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTraceReplayMatchesLive extends the replay-equivalence property to
// the on-disk trace path on both synthesis paths: a fixed-seed
// trajectory recorded through trace.Writer and streamed back through
// trace.Reader + TraceSource must produce digests identical to the live
// synthesis run — compression, XOR-delta filtering, and the disk format
// perturb no output bit.
func TestTraceReplayMatchesLive(t *testing.T) {
	for _, tc := range []struct {
		name     string
		slow     bool
		duration float64
	}{
		{name: "fast-synth", slow: false, duration: 6},
		{name: "slow-synth", slow: true, duration: 1.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("slow synthesis path")
			}
			cfg := DefaultConfig()
			cfg.Seed = 23
			cfg.SlowSynth = tc.slow
			traj := testWalk(tc.duration, 29)

			data := recordTraceBytes(t, cfg, (*Device).TraceHeader, traj)
			t.Logf("trace: %d bytes for %.1f s", len(data), tc.duration)

			liveDev, err := NewDevice(cfg)
			if err != nil {
				t.Fatal(err)
			}
			live := liveDev.Run(traj).Samples

			replayed := replayTraceBytes(t, cfg, data)
			if len(replayed) != len(live) {
				t.Fatalf("replay produced %d samples, live run %d", len(replayed), len(live))
			}
			for i := range live {
				if live[i] != replayed[i] {
					t.Fatalf("sample %d diverged:\n  live   %+v\n  replay %+v", i, live[i], replayed[i])
				}
			}
			if h1, h2 := goldenHash(live), goldenHash(replayed); h1 != h2 {
				t.Fatalf("digest mismatch: live %#016x, replay %#016x", h1, h2)
			}
		})
	}
}

// TestTraceReplayAllocsPerFrame extends the steady-state allocation
// budget to the on-disk replay path: streaming a trace through
// TraceSource (decompression + delta decode into pooled batches) must
// average at most 1 heap allocation per frame, like live synthesis, on
// every record encoding: range bins, float64 sweeps and int16 ADC codes.
// The count includes opening the reader and the source for the measured
// pass. Both passes share one FrameArena: a private ring would allocate
// every batch cold again, more of them the more frames are in flight
// (TestTraceSourceColdBatchAllocs bounds that cost per batch).
func TestTraceReplayAllocsPerFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second streaming runs")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; the budget only holds on plain builds")
	}
	bins := DefaultConfig()
	bins.Seed = 11
	sweeps := bins
	sweeps.SlowSynth = true
	for _, tc := range []struct {
		name    string
		cfg     Config
		header  func(*Device) trace.Header
		seconds float64
	}{
		{"bins", bins, (*Device).TraceHeader, 6},
		{"sweeps-float64", sweeps, (*Device).SweepTraceHeader, 2},
		{"sweeps-int16", quantConfig(11), (*Device).SweepTraceHeader, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := recordTraceBytes(t, tc.cfg, tc.header, testWalk(tc.seconds, 31))
			dev, err := NewDevice(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			arena := NewFrameArena(0)
			replay := func() int {
				tr, err := trace.NewReader(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				src := NewTraceSourceArena(tr, arena)
				ch, err := dev.StreamFrom(context.Background(), src)
				if err != nil {
					t.Fatal(err)
				}
				frames := 0
				for range ch {
					frames++
				}
				if err := src.Err(); err != nil {
					t.Fatal(err)
				}
				return frames
			}

			replay() // warm the trackers' and decoder path's one-time buffers
			dev.Reset()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			frames := replay()
			runtime.ReadMemStats(&m1)
			perFrame := float64(m1.Mallocs-m0.Mallocs) / float64(frames)
			t.Logf("%.2f allocs/frame over %d replayed frames", perFrame, frames)
			if perFrame > 1 {
				t.Fatalf("%.2f allocs/frame exceeds the 1/frame replay budget", perFrame)
			}
		})
	}
}

// TestSteadyStateAllocsPerFrame enforces the allocation budget: after a
// warm-up run, a streaming run must average at most 1 heap allocation
// per frame on both synthesis paths. The count includes the measured
// run's own set-up, amortized over its frames.
func TestSteadyStateAllocsPerFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second streaming runs")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; the budget only holds on plain builds")
	}
	for _, slow := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Seed = 3
		cfg.SlowSynth = slow
		dev, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		walk := testWalk(5, 9)
		dev.Run(walk) // warm every scratch buffer and pool
		dev.Reset()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := dev.Run(walk)
		runtime.ReadMemStats(&m1)
		perFrame := float64(m1.Mallocs-m0.Mallocs) / float64(res.Frames)
		t.Logf("slow=%v: %.2f allocs/frame over %d frames", slow, perFrame, res.Frames)
		if perFrame > 1 {
			t.Fatalf("slow=%v: %.2f allocs/frame exceeds the 1/frame budget", slow, perFrame)
		}
	}
}
