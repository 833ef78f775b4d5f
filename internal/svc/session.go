package svc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"witrack/internal/scenario"
)

// Session states. A session is created waiting, claims running when its
// ingest stream attaches, and ends done or failed. One session serves
// exactly one stream: replaying a second trace is a new session (they
// are cheap — the expensive state, pool and plan cache and arena, is
// shared server-wide).
const (
	StateWaiting = "waiting"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Session is one tenant of the daemon: a pending or in-flight replay of
// one framed .wtrace stream, scored exactly like witrack-replay would
// score the same bytes.
type Session struct {
	id            string
	seq           int
	name          string
	recoverMode   bool
	workers       int
	queueDepth    int
	shedAfter     time.Duration
	frameDeadline time.Duration
	srv           *Server
	ctx           context.Context
	cancel        context.CancelFunc
	created       time.Time

	mu       sync.Mutex
	state    string
	started  time.Time
	frames   int
	valid    int
	degraded int
	last     scenario.ReplayFix
	haveFix  bool
	lagMS    []float64
	result   *scenario.ReplayResult
	runErr   error
	timing   *SessionTiming
}

// Fix is a session's most recent fused output frame, JSON-shaped for
// the management API.
type Fix struct {
	T        float64 `json:"t"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Z        float64 `json:"z"`
	Valid    bool    `json:"valid"`
	Degraded bool    `json:"degraded"`
}

// SessionStats is the management API's view of one session: identity,
// state, and live counters that keep updating while the stream is in
// flight.
type SessionStats struct {
	ID string `json:"id"`
	// Seq is the server-assigned creation sequence (the numeric part of
	// ID); listings sort on it rather than re-parsing the ID string.
	Seq     int    `json:"seq"`
	Name    string `json:"name,omitempty"`
	State   string `json:"state"`
	Created string `json:"created"`
	// Frames is the fused-output frame count so far.
	Frames int `json:"frames"`
	// ValidFrames / DegradedFrames split Frames by fix quality;
	// DegradedFrac is DegradedFrames / Frames.
	ValidFrames    int     `json:"valid_frames"`
	DegradedFrames int     `json:"degraded_frames"`
	DegradedFrac   float64 `json:"degraded_frac"`
	// FPS is fused frames per wall second since the stream attached
	// (final value once done).
	FPS float64 `json:"fps"`
	// AllocsPerFrame: see SessionTiming.AllocsPerFrame; populated once
	// the session ends.
	AllocsPerFrame float64 `json:"allocs_per_frame,omitempty"`
	// LastFix is the most recent valid fix, if any.
	LastFix *Fix `json:"last_fix,omitempty"`
	// Error describes a failed session.
	Error string `json:"error,omitempty"`
	// Result is the deterministic replay outcome of a done session.
	Result *scenario.ReplayResult `json:"result,omitempty"`
}

func newSession(srv *Server, id string, seq int, req CreateRequest) *Session {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Session{
		id:            id,
		seq:           seq,
		name:          req.Name,
		recoverMode:   req.Recover,
		workers:       req.Workers,
		queueDepth:    srv.cfg.QueueDepth,
		shedAfter:     srv.cfg.ShedAfter,
		frameDeadline: srv.cfg.FrameDeadline,
		srv:           srv,
		ctx:           ctx,
		cancel:        cancel,
		created:       time.Now(),
		state:         StateWaiting,
	}
	if req.QueueDepth > 0 {
		s.queueDepth = req.QueueDepth
	}
	if req.ShedAfterMS > 0 {
		s.shedAfter = time.Duration(req.ShedAfterMS) * time.Millisecond
	}
	if req.FrameDeadlineMS > 0 {
		s.frameDeadline = time.Duration(req.FrameDeadlineMS) * time.Millisecond
	}
	return s
}

// Cancel ends the session: a waiting session just closes, a running one
// aborts its replay and reports cancellation in its close summary.
func (s *Session) Cancel() { s.cancel() }

// Stats snapshots the session for the management API.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStats{
		ID:             s.id,
		Seq:            s.seq,
		Name:           s.name,
		State:          s.state,
		Created:        s.created.UTC().Format(time.RFC3339Nano),
		Frames:         s.frames,
		ValidFrames:    s.valid,
		DegradedFrames: s.degraded,
		Result:         s.result,
	}
	if s.frames > 0 {
		st.DegradedFrac = float64(s.degraded) / float64(s.frames)
	}
	if s.timing != nil {
		st.FPS = s.timing.FPS
		st.AllocsPerFrame = s.timing.AllocsPerFrame
	} else if s.state == StateRunning && s.frames > 0 {
		if el := time.Since(s.started).Seconds(); el > 0 {
			st.FPS = float64(s.frames) / el
		}
	}
	if s.haveFix {
		f := s.last
		st.LastFix = &Fix{T: f.T, X: f.Pos.X, Y: f.Pos.Y, Z: f.Pos.Z, Valid: f.Valid, Degraded: f.Degraded}
	}
	if s.runErr != nil {
		st.Error = s.runErr.Error()
	}
	return st
}

// claim transitions waiting → running; false when a stream is already
// attached (or the session already ended).
func (s *Session) claim() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateWaiting {
		return false
	}
	s.state = StateRunning
	s.started = time.Now()
	return true
}

// observe is the per-frame stats hook handed to the replay pipeline.
func (s *Session) observe(start time.Time) func(scenario.ReplayFix) {
	return func(f scenario.ReplayFix) {
		lagMS := (time.Since(start).Seconds() - f.T) * 1e3
		s.mu.Lock()
		s.frames++
		if f.Valid {
			s.valid++
			s.last = f
			s.haveFix = true
		}
		if f.Degraded {
			s.degraded++
		}
		s.lagMS = append(s.lagMS, lagMS)
		s.mu.Unlock()
	}
}

// serve runs the session over one ingest stream and returns its close
// summary. The stream's bytes flow src → bounded queue → trace reader →
// the shared-pool replay pipeline; serve returns when the replay ends
// for any reason (trailer reached, shed, stall, corrupt trace,
// cancellation). The caller owns src and closes it afterwards — that is
// what unblocks a filler still parked in src.Read.
func (s *Session) serve(src io.Reader) *CloseSummary {
	if !s.claim() {
		return &CloseSummary{OK: false, Error: fmt.Sprintf("svc: session %s is %s; it does not accept another ingest stream", s.id, s.stateNow())}
	}
	defer s.cancel()

	q := newIngestQueue(s.queueDepth, s.frameDeadline)
	fillDone := make(chan error, 1)
	go func() { fillDone <- q.fill(src, s.shedAfter) }()
	// Cancellation (DELETE, shutdown) must unblock a replay parked on an
	// idle connection: closing the queue ends the frame stream. The cause
	// is latched so the close summary reports the cancellation, not the
	// internal queue sentinel.
	go func() {
		<-s.ctx.Done()
		q.CloseCause(errSessionCancelled)
	}()

	start := time.Now()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	res, err := scenario.ReplayTraceOpts(s.ctx, q, scenario.ReplayOptions{
		Recover:       s.recoverMode,
		Workers:       s.workers,
		Pool:          s.srv.pool,
		Arena:         s.srv.arena,
		FrameDeadline: s.frameDeadline,
		Observe:       s.observe(start),
	})
	q.Close()

	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	wall := time.Since(start).Seconds()

	if err != nil {
		// Normalize the teardown-path errors into the descriptive close
		// the client should see. The cancellation cause is latched on the
		// queue itself, so a cancelled session reports its cancellation
		// even when the internal sentinel reached the replay first.
		switch {
		case errors.Is(err, errSessionCancelled) || errors.Is(s.ctx.Err(), context.Canceled) && errors.Is(err, errQueueClosed):
			err = fmt.Errorf("svc: session %s cancelled", s.id)
		case errors.Is(err, errQueueClosed):
			err = fmt.Errorf("svc: session %s: ingest stream closed before the trace completed", s.id)
		}
	}

	s.mu.Lock()
	timing := &SessionTiming{WallSeconds: wall, LagMS: s.lagMS}
	if s.frames > 0 {
		if wall > 0 {
			timing.FPS = float64(s.frames) / wall
		}
		timing.AllocsPerFrame = float64(m1.Mallocs-m0.Mallocs) / float64(s.frames)
	}
	s.timing = timing
	if err != nil {
		s.state = StateFailed
		s.runErr = err
	} else {
		s.state = StateDone
		s.result = res
	}
	s.mu.Unlock()

	sum := &CloseSummary{OK: err == nil, Result: res, Timing: timing}
	if err != nil {
		sum.Error = err.Error()
	}
	return sum
}

// stateNow returns the current state under the lock.
func (s *Session) stateNow() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}
