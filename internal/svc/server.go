package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"witrack/internal/core"
)

// ErrSessionLimit refuses session creation past Config.MaxSessions;
// the management API maps it to 429.
var ErrSessionLimit = errors.New("svc: session limit reached")

// ErrBadRequest refuses a create request whose overrides are out of
// range; the management API maps it to 400.
var ErrBadRequest = errors.New("svc: invalid create request")

// MaxQueueDepth caps the ingest queue depth a create request may ask
// for: 256 chunks of 32 KiB, 8 MiB of buffered trace per session.
const MaxQueueDepth = 256

// Config sizes the daemon's shared resources and default per-session
// policies.
type Config struct {
	// PoolSize bounds concurrent heavy compute across ALL sessions (the
	// shared core.WorkerPool). 0 = 4 — the daemon's whole point is that
	// many sessions time-slice a small pool.
	PoolSize int
	// MaxSessions caps tracked sessions (waiting + running + retained
	// finished). Creation beyond it is refused with 429. 0 = 64.
	MaxSessions int
	// QueueDepth is the default per-session ingest queue bound, in
	// 32 KiB chunks. 0 = 8.
	QueueDepth int
	// ShedAfter is the default patience before a full ingest queue sheds
	// its session. 0 = 2s.
	ShedAfter time.Duration
	// FrameDeadline is the default per-session watchdog: a session whose
	// stream delivers no frame for this long fails with a stall error.
	// 0 = 10s. Negative disables the watchdog.
	FrameDeadline time.Duration
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = 4
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.ShedAfter <= 0 {
		c.ShedAfter = 2 * time.Second
	}
	if c.FrameDeadline == 0 {
		c.FrameDeadline = 10 * time.Second
	} else if c.FrameDeadline < 0 {
		c.FrameDeadline = 0
	}
	return c
}

// CreateRequest is the management API's session-creation body. Zero
// fields inherit the server defaults.
type CreateRequest struct {
	// Name labels the session in listings (free-form, optional).
	Name string `json:"name,omitempty"`
	// Recover replays damaged traces in recover mode (skip counts
	// surface in the result) instead of failing on the first bad CRC.
	Recover bool `json:"recover,omitempty"`
	// Workers overrides the per-antenna worker count for this session.
	Workers int `json:"workers,omitempty"`
	// QueueDepth / ShedAfterMS / FrameDeadlineMS override the server's
	// backpressure and watchdog defaults for this session. QueueDepth
	// may not exceed MaxQueueDepth.
	QueueDepth      int `json:"queue_depth,omitempty"`
	ShedAfterMS     int `json:"shed_after_ms,omitempty"`
	FrameDeadlineMS int `json:"frame_deadline_ms,omitempty"`
}

// Info is the management API's GET /info document.
type Info struct {
	// IngestAddr is the TCP ingest listener's address — published here
	// so clients need only the management address to find both planes.
	IngestAddr  string `json:"ingest_addr"`
	Sessions    int    `json:"sessions"`
	MaxSessions int    `json:"max_sessions"`
	PoolSize    int    `json:"pool_size"`
}

// Server is the witrack-svc daemon: a TCP ingest plane and an HTTP
// management plane multiplexing sessions over one worker pool, one
// frame arena, and the process-wide FFT plan cache.
type Server struct {
	cfg   Config
	pool  *core.WorkerPool
	arena *core.FrameArena

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   int
	closed   bool

	ingestLn net.Listener
	httpSrv  *http.Server
	httpLn   net.Listener
	wg       sync.WaitGroup
}

// NewServer builds a daemon (not yet listening) from cfg.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		pool:     core.NewWorkerPool(cfg.PoolSize),
		arena:    core.NewFrameArena(0),
		sessions: make(map[string]*Session),
	}
}

// Start binds the ingest and management listeners (addresses in
// host:port form; port 0 picks a free port) and begins serving. The
// ingest listener is bound before the management plane announces its
// address via /info, so a client that learns the ingest address can
// always connect.
func (s *Server) Start(ingestAddr, mgmtAddr string) error {
	ln, err := net.Listen("tcp", ingestAddr)
	if err != nil {
		return fmt.Errorf("svc: ingest listen: %w", err)
	}
	hln, err := net.Listen("tcp", mgmtAddr)
	if err != nil {
		ln.Close()
		return fmt.Errorf("svc: management listen: %w", err)
	}
	s.ingestLn = ln
	s.httpLn = hln
	s.httpSrv = &http.Server{Handler: s.handler()}

	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.acceptLoop()
	}()
	go func() {
		defer s.wg.Done()
		s.httpSrv.Serve(hln)
	}()
	return nil
}

// IngestAddr returns the bound ingest address (valid after Start).
func (s *Server) IngestAddr() string { return s.ingestLn.Addr().String() }

// MgmtAddr returns the bound management address (valid after Start).
func (s *Server) MgmtAddr() string { return s.httpLn.Addr().String() }

// Shutdown stops listening, cancels every session, and waits for the
// serving goroutines (bounded by ctx).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	if s.ingestLn != nil {
		s.ingestLn.Close()
	}
	for _, sess := range sessions {
		sess.Cancel()
	}
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// Create registers a new waiting session, refusing past MaxSessions
// and refusing a queue depth past MaxQueueDepth.
func (s *Server) Create(req CreateRequest) (*Session, error) {
	if req.QueueDepth > MaxQueueDepth {
		return nil, fmt.Errorf("%w: queue_depth %d exceeds the cap of %d chunks", ErrBadRequest, req.QueueDepth, MaxQueueDepth)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("svc: server is shut down")
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, fmt.Errorf("%w (%d); close finished sessions first", ErrSessionLimit, s.cfg.MaxSessions)
	}
	s.nextID++
	id := "s" + strconv.Itoa(s.nextID)
	sess := newSession(s, id, s.nextID, req)
	s.sessions[id] = sess
	return sess, nil
}

// Session looks up a session by id.
func (s *Server) Session(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// Remove cancels and forgets a session.
func (s *Server) Remove(id string) bool {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if ok {
		sess.Cancel()
	}
	return ok
}

// List snapshots all sessions' stats, in creation order.
func (s *Server) List() []SessionStats {
	s.mu.Lock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	stats := make([]SessionStats, len(sessions))
	for i, sess := range sessions {
		stats[i] = sess.Stats()
	}
	// Sort on the numeric creation sequence, not a re-parse of the ID
	// string (whose silent Atoi failure would scramble the order).
	sort.Slice(stats, func(i, j int) bool { return stats[i].Seq < stats[j].Seq })
	return stats
}

// acceptLoop serves the TCP ingest plane: each connection names its
// session in a hello frame and then streams that session's trace.
func (s *Server) acceptLoop() {
	for {
		conn, err := s.ingestLn.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// serveConn handles one ingest connection end to end: hello → session
// lookup → stream → close summary. The summary is written even on
// refusal (unknown session, double attach), so a client always learns
// why its stream ended.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	id, err := readHello(conn)
	if err != nil {
		s.sendSummary(conn, "", &CloseSummary{OK: false, Error: err.Error()})
		return
	}
	sess, ok := s.Session(id)
	if !ok {
		s.sendSummary(conn, id, &CloseSummary{OK: false, Error: fmt.Sprintf("svc: unknown session %q", id)})
		return
	}
	sum := sess.serve(conn)
	s.sendSummary(conn, id, sum)
}

// sendSummary writes the close summary, logging a failed delivery: the
// session's verdict is already final either way, but a client that
// never received it will retry or hang, and that is worth a log line.
func (s *Server) sendSummary(conn net.Conn, id string, sum *CloseSummary) {
	if err := writeSummary(conn, sum); err != nil {
		if id == "" {
			id = "(no session)"
		}
		log.Printf("svc: writing close summary to %s for %s: %v", conn.RemoteAddr(), id, err)
	}
}

// handler builds the management API.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /info", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		n := len(s.sessions)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, Info{
			IngestAddr:  s.IngestAddr(),
			Sessions:    n,
			MaxSessions: s.cfg.MaxSessions,
			PoolSize:    s.cfg.PoolSize,
		})
	})
	mux.HandleFunc("POST /sessions", func(w http.ResponseWriter, r *http.Request) {
		var req CreateRequest
		if r.ContentLength != 0 {
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("svc: decoding create request: %w", err))
				return
			}
		}
		sess, err := s.Create(req)
		if err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, ErrSessionLimit):
				status = http.StatusTooManyRequests
			case errors.Is(err, ErrBadRequest):
				status = http.StatusBadRequest
			}
			httpError(w, status, err)
			return
		}
		writeJSON(w, http.StatusCreated, sess.Stats())
	})
	mux.HandleFunc("GET /sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("GET /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		sess, ok := s.Session(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("svc: unknown session %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, sess.Stats())
	})
	mux.HandleFunc("DELETE /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !s.Remove(r.PathValue("id")) {
			httpError(w, http.StatusNotFound, fmt.Errorf("svc: unknown session %q", r.PathValue("id")))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	// The HTTP ingest plane: POST the raw .wtrace body; the response is
	// the close summary. Equivalent to the TCP plane minus pacing-grade
	// flow control — handy behind plain HTTP tooling.
	mux.HandleFunc("POST /sessions/{id}/ingest", func(w http.ResponseWriter, r *http.Request) {
		sess, ok := s.Session(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("svc: unknown session %q", r.PathValue("id")))
			return
		}
		sum := sess.serve(r.Body)
		status := http.StatusOK
		if !sum.OK {
			status = http.StatusUnprocessableEntity
		}
		writeJSON(w, status, sum)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already gone; all we can do is say the body
		// did not follow it (encode failure or client hang-up mid-write).
		log.Printf("svc: writing %d response body: %v", status, err)
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
