// Command witrack-svc is the multi-tenant tracking daemon: a long-lived
// process that serves many concurrent trace-replay sessions over one
// shared worker pool, one decoded-frame arena, and the process-wide FFT
// plan and window-kernel caches. Sessions are created over the management HTTP API and fed
// framed .wtrace streams over the TCP ingest plane (or POSTed over
// HTTP); each session scores its stream with the exact replay path
// witrack-replay uses, so served metrics are bit-identical to a
// single-process replay of the same bytes.
//
// Usage:
//
//	witrack-svc [-ingest host:port] [-mgmt host:port] [-pool n]
//	            [-max-sessions n] [-queue-depth n]
//	            [-shed-after d] [-frame-deadline d]
//
// Management API (all JSON):
//
//	GET    /healthz              liveness
//	GET    /info                 ingest address, session counts, pool size
//	POST   /sessions             create a session (svc.CreateRequest body;
//	                             400 on a queue_depth above svc.MaxQueueDepth,
//	                             429 past -max-sessions)
//	GET    /sessions             list all sessions' stats
//	GET    /sessions/{id}        one session's stats
//	DELETE /sessions/{id}        cancel and remove a session
//	POST   /sessions/{id}/ingest HTTP ingest: raw .wtrace body → close summary
//
// SIGINT/SIGTERM shut the daemon down gracefully: listeners close, every
// session is cancelled with a descriptive close summary, and the process
// exits once the serving goroutines drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"witrack/internal/svc"
)

func main() {
	ingest := flag.String("ingest", "127.0.0.1:7513", "TCP ingest listen address (port 0 picks a free port)")
	mgmt := flag.String("mgmt", "127.0.0.1:7514", "management HTTP listen address")
	pool := flag.Int("pool", 0, "shared worker-pool slots across all sessions (0 = default)")
	maxSessions := flag.Int("max-sessions", 0, "maximum tracked sessions (0 = default)")
	queueDepth := flag.Int("queue-depth", 0, "per-session ingest queue depth, in 32 KiB chunks (0 = default)")
	shedAfter := flag.Duration("shed-after", 0, "patience before a full ingest queue sheds its session (0 = default)")
	frameDeadline := flag.Duration("frame-deadline", 0, "per-session stall watchdog; negative disables (0 = default)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "witrack-svc: unexpected arguments")
		flag.Usage()
		os.Exit(2)
	}

	srv := svc.NewServer(svc.Config{
		PoolSize:      *pool,
		MaxSessions:   *maxSessions,
		QueueDepth:    *queueDepth,
		ShedAfter:     *shedAfter,
		FrameDeadline: *frameDeadline,
	})
	if err := srv.Start(*ingest, *mgmt); err != nil {
		fmt.Fprintln(os.Stderr, "witrack-svc:", err)
		os.Exit(1)
	}
	fmt.Printf("witrack-svc: ingest on %s, management on http://%s\n", srv.IngestAddr(), srv.MgmtAddr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("witrack-svc: %s, shutting down\n", s)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "witrack-svc: shutdown:", err)
		os.Exit(1)
	}
}
