package core

import (
	"sync"
	"sync/atomic"
	"time"

	"witrack/internal/dsp"
)

// Cross-session batching defaults: the gather window is short enough
// that a lone session adds well under a frame interval of latency per
// transform, and the segment cap keeps one combined call's working set
// (maxBatch half-size FFT segments) cache-resident.
const (
	DefaultGatherWindow = 250 * time.Microsecond
	DefaultMaxBatch     = 64
)

// BatchScheduler coalesces frame transforms across pipelines that share
// a dsp.Plan. Sessions submit each frame's sweeps as one dsp.RFFTSpan
// through per-session BatchClients; submissions against the same plan
// that land within a bounded gather window are executed as one
// stage-interleaved dsp.RFFTSpans call, so the twiddle tables stream
// from memory once per stage for the whole collection instead of once
// per session.
//
// Execution is leader-follower: the first submitter of a plan's open
// group becomes its leader, later submitters are followers. The group
// seals when its segment count reaches maxBatch or when the gather
// window expires, whichever first; the leader then runs the combined
// transform on its own goroutine and wakes the followers. Submitters
// are pipeline workers already holding their WorkerPool slot (slots are
// held across proc, and materialize runs inside proc), so the combined
// work executes under a held slot with no extra acquire — a leader
// blocks only on the window timer and a follower only on its leader,
// both bounded, so pooled pipelines still cannot deadlock. A lone
// session's group simply times out with one span in it and runs the
// same RFFTSpans call the session would have made on its own.
//
// Bit-parity: dsp.RFFTSpans leaves every span bit-identical to
// transforming its sweeps one at a time (pinned in dsp's batch oracle
// tests), and each job's sweeps are packed into that job's own dst
// arena, so coalescing changes scheduling only — live == replay ==
// served parity is preserved exactly.
type BatchScheduler struct {
	window   time.Duration
	maxBatch int

	mu     sync.Mutex
	groups map[*dsp.Plan]*batchGroup

	scratch sync.Pool // *batchExecScratch

	batches      atomic.Int64
	multiBatches atomic.Int64
}

// NewBatchScheduler builds a scheduler with the given gather window and
// per-call segment cap (non-positive values select the defaults).
func NewBatchScheduler(window time.Duration, maxBatch int) *BatchScheduler {
	if window <= 0 {
		window = DefaultGatherWindow
	}
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	return &BatchScheduler{
		window:   window,
		maxBatch: maxBatch,
		groups:   make(map[*dsp.Plan]*batchGroup),
	}
}

// Stats reports how many combined transform calls the scheduler has
// issued and how many of them spanned two or more clients.
func (s *BatchScheduler) Stats() (batches, multiClient int64) {
	return s.batches.Load(), s.multiBatches.Load()
}

// NewClient returns a submission handle for one session (one pipeline).
// A client implements fmcw.RFFTBatcher; install it on the pipeline via
// Device.Batch / MultiDevice.Batch. Each client tracks its own
// coalescing counters, so a daemon can report per-session batching
// efficiency.
func (s *BatchScheduler) NewClient() *BatchClient {
	return &BatchClient{sched: s}
}

// BatchClient is one session's handle on a BatchScheduler.
type BatchClient struct {
	sched     *BatchScheduler
	submitted atomic.Int64
	coalesced atomic.Int64
}

// Stats reports how many frame transforms this client has submitted and
// how many of them rode a combined call spanning at least one other
// client — the numerator and denominator of the session's multi-session
// coalescing fraction.
func (c *BatchClient) Stats() (submitted, coalesced int64) {
	return c.submitted.Load(), c.coalesced.Load()
}

// RFFT implements fmcw.RFFTBatcher: it submits one frame's span for
// coalesced execution and blocks until the results are in sp.Dst.
// Groups are keyed by plan, not by encoding, so float64 and int16
// sessions coalesce with each other.
func (c *BatchClient) RFFT(plan *dsp.Plan, sp dsp.RFFTSpan) {
	job := &batchJob{client: c, span: sp, done: make(chan struct{})}
	c.sched.submit(plan, job)
}

// batchJob is one submitted frame transform.
type batchJob struct {
	client *BatchClient
	span   dsp.RFFTSpan
	done   chan struct{}
}

// batchGroup is one plan's open gather of jobs. ready is closed when
// the group seals; the leader (the submitter that created the group)
// waits on it and then executes every job in the group.
type batchGroup struct {
	plan   *dsp.Plan
	jobs   []*batchJob
	segs   int
	sealed bool
	ready  chan struct{}
	timer  *time.Timer
}

// batchExecScratch is a leader's reusable gather buffers.
type batchExecScratch struct {
	spans []dsp.RFFTSpan
	segs  [][]complex128
}

// submit enqueues one job into plan's open gather group and blocks
// until the group has executed.
func (s *BatchScheduler) submit(plan *dsp.Plan, job *batchJob) {
	s.mu.Lock()
	g := s.groups[plan]
	leader := g == nil
	if leader {
		g = &batchGroup{plan: plan, ready: make(chan struct{})}
		s.groups[plan] = g
	}
	g.jobs = append(g.jobs, job)
	g.segs += job.span.Len()
	if g.segs >= s.maxBatch {
		s.sealLocked(g)
	} else if leader {
		g.timer = time.AfterFunc(s.window, func() {
			s.mu.Lock()
			if !g.sealed {
				s.sealLocked(g)
			}
			s.mu.Unlock()
		})
	}
	s.mu.Unlock()

	if !leader {
		<-job.done
		return
	}
	<-g.ready
	s.execute(g)
}

// sealLocked closes a group to new jobs and wakes its leader. Called
// with s.mu held, from a submitter or the gather-window timer.
func (s *BatchScheduler) sealLocked(g *batchGroup) {
	g.sealed = true
	if g.timer != nil {
		g.timer.Stop()
	}
	if s.groups[g.plan] == g {
		delete(s.groups, g.plan)
	}
	close(g.ready)
}

// execute runs a sealed group's combined transform on the leader's
// goroutine (under the leader's already-held pool slot) and wakes the
// followers. Counting: a job "rode a multi-session batch" when its
// group held jobs from at least one other client.
func (s *BatchScheduler) execute(g *batchGroup) {
	sc, _ := s.scratch.Get().(*batchExecScratch)
	if sc == nil {
		sc = &batchExecScratch{}
	}
	sc.spans = sc.spans[:0]
	for _, j := range g.jobs {
		sc.spans = append(sc.spans, j.span)
	}
	sc.segs = g.plan.RFFTSpans(sc.spans, sc.segs)
	// Drop the references to foreign arenas before pooling the scratch:
	// a recycled gather list must not pin session buffers.
	for i := range sc.spans {
		sc.spans[i] = dsp.RFFTSpan{}
	}
	for i := range sc.segs {
		sc.segs[i] = nil
	}
	sc.segs = sc.segs[:0]
	s.scratch.Put(sc)

	s.batches.Add(1)
	multi := false
	for _, j := range g.jobs[1:] {
		if j.client != g.jobs[0].client {
			multi = true
			break
		}
	}
	if multi {
		s.multiBatches.Add(1)
	}
	for _, j := range g.jobs {
		if j.client != nil {
			j.client.submitted.Add(1)
			if multi {
				j.client.coalesced.Add(1)
			}
		}
		close(j.done)
	}
}
