package core

import (
	"context"
	"sync"
	"testing"

	"witrack/internal/motion"
)

// TestSharedPlanConcurrentSessionsBitIdentical proves the table
// sharing behind multi-session serving: two sessions running the
// time-domain sweep path concurrently in one process — both pulling
// their plans from the global dsp.PlanFor cache, their window kernels
// from fmcw's kernel-table cache, and their scratch from per-worker
// arenas — produce output bit-identical to the same two workloads run
// in isolation (each alone in the process, the moral equivalent of two
// separate processes). The shared tables are immutable after
// construction and every mutable FFT buffer is per-antenna scratch, so
// sharing the caches can change cache-hit timing only, never an output
// bit. Run under -race this doubles as the data-race proof for the
// shared caches.
func TestSharedPlanConcurrentSessionsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("time-domain synthesis is slow; skipped with -short")
	}
	mkCfg := func(seed int64) Config {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.SlowSynth = true // the dsp.Plan / RFFT-consuming path
		return cfg
	}
	mkTraj := func(cfg Config) motion.Trajectory {
		return motion.NewRandomWalk(motion.DefaultWalkConfig(
			motion.Region{XMin: -2, XMax: 2, YMin: 3, YMax: 6},
			cfg.Subject.CenterHeight(), 1.2, cfg.Seed+100))
	}
	run := func(cfg Config, traj motion.Trajectory) uint64 {
		dev, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return goldenHash(drain(dev.Stream(context.Background(), traj)))
	}

	cfgA, cfgB := mkCfg(211), mkCfg(223)
	trajA, trajB := mkTraj(cfgA), mkTraj(cfgB)

	// Isolated runs: one at a time, nothing else touching the plan cache.
	wantA := run(cfgA, trajA)
	wantB := run(cfgB, trajB)

	// Shared run: both sessions in flight at once, racing on PlanFor.
	var wg sync.WaitGroup
	var gotA, gotB uint64
	wg.Add(2)
	go func() { defer wg.Done(); gotA = run(cfgA, trajA) }()
	go func() { defer wg.Done(); gotB = run(cfgB, trajB) }()
	wg.Wait()

	if gotA != wantA {
		t.Fatalf("session A diverged when sharing the plan cache: digest %#x, want %#x", gotA, wantA)
	}
	if gotB != wantB {
		t.Fatalf("session B diverged when sharing the plan cache: digest %#x, want %#x", gotB, wantB)
	}
}
