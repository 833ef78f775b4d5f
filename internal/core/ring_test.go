package core

import (
	"context"
	"sync"
	"testing"

	"witrack/internal/fault"
	"witrack/internal/motion"
)

// TestBatchRingDoublePut verifies the ring's ownership check: recycling
// the same batch twice must panic instead of silently aliasing two
// future frames onto one buffer.
func TestBatchRingDoublePut(t *testing.T) {
	r := newBatchRing(4)
	b := r.get()
	r.put(b)
	defer func() {
		if recover() == nil {
			t.Fatal("double put did not panic")
		}
	}()
	r.put(b)
}

// TestBatchRingGetAfterPutReusable verifies the get/put cycle: a
// recycled batch comes back out reusable (pooled flag cleared, so a
// later legitimate put succeeds), and the ring hands back the same
// buffer rather than allocating.
func TestBatchRingGetAfterPutReusable(t *testing.T) {
	r := newBatchRing(4)
	b := r.get()
	r.put(b)
	b2 := r.get()
	if b2 != b {
		t.Fatal("ring did not recycle the stored batch")
	}
	r.put(b2) // must not panic: get cleared the pooled flag
}

// TestBatchRingOverflowDrops verifies that a full ring drops extra
// batches for the GC instead of growing without bound.
func TestBatchRingOverflowDrops(t *testing.T) {
	r := newBatchRing(2)
	a, b, c := &FrameBatch{}, &FrameBatch{}, &FrameBatch{}
	r.put(a)
	r.put(b)
	r.put(c) // dropped
	if r.n != 2 {
		t.Fatalf("ring holds %d batches, want capacity 2", r.n)
	}
}

// TestBatchRingConcurrentHammer drives the ring from many goroutines at
// once — the -race build's shot at catching unsynchronized access, and
// the double-put panic's shot at catching an ownership bug under real
// contention. Each goroutine owns every batch it gets until it puts it
// back, mirroring the pipeline's source/fusion split.
func TestBatchRingConcurrentHammer(t *testing.T) {
	r := newBatchRing(8)
	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			held := make([]*FrameBatch, 0, 4)
			for i := 0; i < iters; i++ {
				b := r.get()
				if b.pooled {
					panic("got a batch still marked pooled")
				}
				// Touch the buffers the pipeline reuses, so -race sees
				// any sharing between two goroutines holding "the same"
				// batch.
				b.Index = g*iters + i
				b.States = append(b.States[:0], motion.BodyState{})
				held = append(held, b)
				if len(held) == cap(held) || i%3 == 0 {
					for _, h := range held {
						r.put(h)
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				r.put(h)
			}
		}(g)
	}
	wg.Wait()
}

// TestRingSurvivesCancelDuringOutage hammers mid-run cancellation while
// the fault injector is actively dropping and corrupting frames: the
// teardown paths (faultSource recycling dropped batches, the pipeline
// draining in-flight batches, the watchdog recycling its orphan) must
// neither leak ring slots nor double-put a batch — a double put panics,
// and the -race lane catches any unsynchronized recycling. The same
// device (and so the same ring) is reused across every iteration, then
// must still complete a clean full run.
func TestRingSurvivesCancelDuringOutage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 77
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.InjectFaults(fault.Schedule{Seed: 13, Windows: []fault.Window{
		{Kind: fault.DropFrame, Start: 0, Prob: 0.3},
		{Kind: fault.Dark, Antenna: 1, Start: 5},
		{Kind: fault.NaN, Antenna: 0, Start: 0, Prob: 0.2},
	}}); err != nil {
		t.Fatal(err)
	}
	const rounds = 24
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		walk := motion.NewRandomWalk(motion.DefaultWalkConfig(testRegion(), cfg.Subject.CenterHeight(), 3, int64(i+1)))
		ch := dev.Stream(ctx, walk)
		// Cancel at a different depth each round: mid-acquisition, during
		// the outage, while frames are being dropped.
		stopAfter := (i * 7) % 40
		n := 0
		for range ch {
			if n == stopAfter {
				cancel()
			}
			n++
		}
		cancel()
		dev.Reset()
	}
	// The ring must still cycle cleanly: a full uncancelled run completes
	// and yields the expected number of surviving frames.
	walk := motion.NewRandomWalk(motion.DefaultWalkConfig(testRegion(), cfg.Subject.CenterHeight(), 3, 99))
	res := dev.Run(walk)
	if res.Frames == 0 {
		t.Fatal("no frames after cancellation rounds")
	}
	if dev.ring.n > ringCapacity {
		t.Fatalf("ring holds %d batches, capacity %d", dev.ring.n, ringCapacity)
	}
}
