package svc

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"witrack/internal/scenario"
	"witrack/internal/trace"
)

// corpusDir is the golden trace corpus the scenario gate pins — the
// same streams the daemon must serve with bit-identical metrics.
const corpusDir = "../scenario/testdata/corpus"

func corpusTraces(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.wtrace"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus traces under %s (err=%v)", corpusDir, err)
	}
	traces := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		traces[filepath.Base(p)] = data
	}
	return traces
}

// startServer spins up a daemon on loopback with a deliberately tiny
// shared pool, so concurrent-session tests actually contend.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := NewServer(cfg)
	if err := srv.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// replayLocal scores a trace the way witrack-replay does — the parity
// reference for everything the daemon serves.
func replayLocal(t *testing.T, data []byte) *scenario.ReplayResult {
	t.Helper()
	res, err := scenario.ReplayTrace(context.Background(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameResult(t *testing.T, label string, got, want *scenario.ReplayResult) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil result (got=%v want=%v)", label, got, want)
	}
	if got.Name != want.Name || got.Device != want.Device || got.Frames != want.Frames || got.Skips != want.Skips {
		t.Fatalf("%s: identity drifted: got %+v, want %+v", label, got, want)
	}
	for _, k := range want.Metrics.Keys() {
		g, ok := got.Metrics[k]
		if !ok {
			t.Fatalf("%s: served result lost metric %s", label, k)
		}
		if math.Float64bits(g) != math.Float64bits(want.Metrics[k]) {
			t.Fatalf("%s: metric %s drifted: served %.17g, local %.17g", label, k, g, want.Metrics[k])
		}
	}
	if len(got.Metrics) != len(want.Metrics) {
		t.Fatalf("%s: served %d metrics, local replay %d", label, len(got.Metrics), len(want.Metrics))
	}
}

// TestSvcServedMatchesLocalReplay is the daemon's core guarantee on
// every corpus trace: the result a session serves over the wire is
// bit-identical to a single-process replay of the same bytes — the
// served leg of the live == replay == served parity chain.
func TestSvcServedMatchesLocalReplay(t *testing.T) {
	srv := startServer(t, Config{PoolSize: 2})
	client := &Client{Mgmt: "http://" + srv.MgmtAddr()}
	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range corpusTraces(t) {
		want := replayLocal(t, data)
		stats, err := client.CreateSession(CreateRequest{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := IngestTCP(info.IngestAddr, stats.ID, data, IngestOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sum.OK {
			t.Fatalf("%s: session failed: %s", name, sum.Error)
		}
		sameResult(t, name, sum.Result, want)

		// The management API serves the same result and sane stats.
		after, err := client.Session(stats.ID)
		if err != nil {
			t.Fatal(err)
		}
		if after.State != StateDone {
			t.Fatalf("%s: state %q after success", name, after.State)
		}
		sameResult(t, name+" (mgmt)", after.Result, want)
		if after.Frames != want.Frames || after.LastFix == nil || after.FPS <= 0 {
			t.Fatalf("%s: implausible stats %+v", name, after)
		}
	}
}

// TestSvcConcurrentSessions runs 8 concurrent sessions — more tenants
// than pool slots — over the corpus and checks every served result
// against the local replay of its trace. This is the race lane's main
// course: shared pool, shared arena, shared plan cache, one process.
func TestSvcConcurrentSessions(t *testing.T) {
	const sessions = 8
	srv := startServer(t, Config{PoolSize: 2})
	client := &Client{Mgmt: "http://" + srv.MgmtAddr()}
	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	traces := corpusTraces(t)
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	want := make(map[string]*scenario.ReplayResult, len(names))
	for _, name := range names {
		want[name] = replayLocal(t, traces[name])
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		name := names[i%len(names)]
		stats, err := client.CreateSession(CreateRequest{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id, name string) {
			defer wg.Done()
			sum, err := IngestTCP(info.IngestAddr, id, traces[name], IngestOptions{})
			if err != nil {
				errs <- fmt.Errorf("%s (%s): %w", id, name, err)
				return
			}
			if !sum.OK {
				errs <- fmt.Errorf("%s (%s): session failed: %s", id, name, sum.Error)
				return
			}
			w := want[name]
			if sum.Result.Frames != w.Frames {
				errs <- fmt.Errorf("%s (%s): %d frames, want %d", id, name, sum.Result.Frames, w.Frames)
				return
			}
			for _, k := range w.Metrics.Keys() {
				if math.Float64bits(sum.Result.Metrics[k]) != math.Float64bits(w.Metrics[k]) {
					errs <- fmt.Errorf("%s (%s): metric %s drifted under concurrency", id, name, k)
					return
				}
			}
			errs <- nil
		}(stats.ID, name)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if srv.pool.InUse() != 0 {
		t.Fatalf("pool leaked %d slots", srv.pool.InUse())
	}
}

// recordSweeps records a sweep-domain cell into memory.
func recordSweeps(t *testing.T, sp scenario.Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, _, err := scenario.RecordCellSweeps(&sp, 0, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serveSweepSessions serves n concurrent sessions, session i streaming
// streams[i%len(streams)], through a daemon with fewer pool slots than
// sessions. Every served result must be bit-identical to the local
// offline replay of its stream, and no pool slot may leak.
func serveSweepSessions(t *testing.T, n int, streams ...[]byte) {
	t.Helper()
	wants := make([]*scenario.ReplayResult, len(streams))
	for i, data := range streams {
		wants[i] = replayLocal(t, data)
	}
	srv := startServer(t, Config{PoolSize: 2})
	client := &Client{Mgmt: "http://" + srv.MgmtAddr()}
	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	sums := make([]*CloseSummary, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		stats, err := client.CreateSession(CreateRequest{Name: fmt.Sprintf("sweep-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sums[i], errs[i] = IngestTCP(info.IngestAddr, id, streams[i%len(streams)], IngestOptions{})
		}(i, stats.ID)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !sums[i].OK {
			t.Fatalf("session %d failed: %s", i, sums[i].Error)
		}
		sameResult(t, fmt.Sprintf("sweep session %d", i), sums[i].Result, wants[i%len(streams)])
	}
	if srv.pool.InUse() != 0 {
		t.Fatalf("pool leaked %d slots", srv.pool.InUse())
	}
}

// TestSvcSweepSessionsCoalesce is the parity gate for concurrent
// sweep-domain sessions: four sessions replay the same sweep trace —
// every frame runs the full window + RFFT path on the worker holding
// the session's pool slot — and each must serve exactly what the local
// offline replay scores.
func TestSvcSweepSessionsCoalesce(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-domain synthesis and replay are slow; skipped with -short")
	}
	serveSweepSessions(t, 4, recordSweeps(t, scenario.SweepCell()))
}

// TestSvcInt16SweepSessionsCoalesce extends the sweep parity gate to
// the quantized ingest path, mixed with full-precision sessions: two
// sessions replay the int16 sweep trace (delta-coded ADC codes through
// the int16 frame body) while two replay the float64
// recording of the same radio, and every served result must be
// bit-identical to its own local offline replay. The int16 trace must
// also be at least 3x smaller than the float64 one.
func TestSvcInt16SweepSessionsCoalesce(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-domain synthesis and replay are slow; skipped with -short")
	}
	data64 := recordSweeps(t, scenario.SweepCell())
	data16 := recordSweeps(t, scenario.SweepCellInt16())
	if r := float64(len(data64)) / float64(len(data16)); r < 3 {
		t.Fatalf("int16 sweep trace only %.2fx smaller than float64 (%d vs %d bytes), want >= 3x", r, len(data16), len(data64))
	}
	serveSweepSessions(t, 4, data64, data16)
}

// TestSvcMidStreamDisconnect drops the client halfway through the
// gzip stream: the session must fail with a descriptive error, not
// wedge, and the daemon must keep serving afterwards.
func TestSvcMidStreamDisconnect(t *testing.T) {
	srv := startServer(t, Config{PoolSize: 2, FrameDeadline: 2 * time.Second})
	client := &Client{Mgmt: "http://" + srv.MgmtAddr()}
	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	data := corpusTraces(t)["corpus-walk-d0.wtrace"]

	stats, err := client.CreateSession(CreateRequest{Name: "drop"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IngestTCP(info.IngestAddr, stats.ID, data, IngestOptions{CloseWriteEarly: len(data) / 2}); err != nil {
		t.Fatal(err)
	}
	// The session fails asynchronously once the pipeline drains the
	// truncated stream.
	deadline := time.Now().Add(10 * time.Second)
	var after SessionStats
	for {
		after, err = client.Session(stats.ID)
		if err != nil {
			t.Fatal(err)
		}
		if after.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in state %q after disconnect", after.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if after.Error == "" {
		t.Fatal("failed session carries no error description")
	}

	// The daemon is still healthy: a fresh session replays cleanly.
	stats2, err := client.CreateSession(CreateRequest{Name: "after-drop"})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := IngestTCP(info.IngestAddr, stats2.ID, data, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.OK {
		t.Fatalf("post-disconnect session failed: %s", sum.Error)
	}
	sameResult(t, "after-drop", sum.Result, replayLocal(t, data))
}

// TestSvcCancelViaDelete cancels a running session through the
// management API mid-stream; the client's summary must report the
// cancellation, and the session must vanish from listings.
func TestSvcCancelViaDelete(t *testing.T) {
	srv := startServer(t, Config{PoolSize: 2})
	client := &Client{Mgmt: "http://" + srv.MgmtAddr()}
	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	data := corpusTraces(t)["corpus-walk-d0.wtrace"]

	stats, err := client.CreateSession(CreateRequest{Name: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	sumCh := make(chan *CloseSummary, 1)
	errCh := make(chan error, 1)
	go func() {
		// Pace the stream so the DELETE lands while it is in flight.
		sum, err := IngestTCP(info.IngestAddr, stats.ID, data, IngestOptions{PaceOver: 20 * time.Second})
		sumCh <- sum
		errCh <- err
	}()

	// Wait until the session is actually running, then kill it.
	for {
		s, err := client.Session(stats.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.State == StateRunning {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := client.DeleteSession(stats.ID); err != nil {
		t.Fatal(err)
	}

	sum, ingErr := <-sumCh, <-errCh
	// The paced writer may race the teardown: either it delivered the
	// summary (which must describe the cancellation) or its connection
	// broke mid-write — both are acceptable closes; a success is not.
	if ingErr == nil && sum != nil {
		if sum.OK {
			t.Fatal("cancelled session reported success")
		}
		if !strings.Contains(sum.Error, "cancel") {
			t.Fatalf("cancelled session's error %q does not mention cancellation", sum.Error)
		}
	}
	if _, err := client.Session(stats.ID); err == nil {
		t.Fatal("deleted session still listed")
	}
	list, err := client.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range list {
		if s.ID == stats.ID {
			t.Fatal("deleted session still in listing")
		}
	}
}

// TestSvcWatchdogStall connects a client that sends the hello and then
// goes silent: the per-session frame deadline must fail the session
// with the stall error instead of parking it forever.
func TestSvcWatchdogStall(t *testing.T) {
	srv := startServer(t, Config{PoolSize: 2, FrameDeadline: 300 * time.Millisecond})
	client := &Client{Mgmt: "http://" + srv.MgmtAddr()}
	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.CreateSession(CreateRequest{Name: "stall"})
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", info.IngestAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHello(conn, stats.ID); err != nil {
		t.Fatal(err)
	}
	// Send nothing further; the watchdog should close us out with a
	// descriptive summary.
	conn.SetReadDeadline(time.Now().Add(15 * time.Second))
	sum, err := readSummary(conn)
	if err != nil {
		t.Fatal(err)
	}
	if sum.OK {
		t.Fatal("stalled session reported success")
	}
	if !strings.Contains(sum.Error, "stalled") {
		t.Fatalf("stall summary error %q does not mention the stall", sum.Error)
	}
	after, err := client.Session(stats.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != StateFailed {
		t.Fatalf("stalled session in state %q, want failed", after.State)
	}
}

// TestSvcSessionLimit: creation past MaxSessions is refused with the
// limit error (the HTTP plane maps it to 429).
func TestSvcSessionLimit(t *testing.T) {
	srv := startServer(t, Config{PoolSize: 1, MaxSessions: 2})
	client := &Client{Mgmt: "http://" + srv.MgmtAddr()}
	for i := 0; i < 2; i++ {
		if _, err := client.CreateSession(CreateRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := client.CreateSession(CreateRequest{})
	if err == nil {
		t.Fatal("creation past MaxSessions succeeded")
	}
	if !strings.Contains(err.Error(), "429") {
		t.Fatalf("limit error %q does not carry HTTP 429", err)
	}
}

// TestSvcRefusesHugeQueueDepth: a create request asking for an ingest
// queue deeper than MaxQueueDepth is refused with 400 before any queue
// is built, and the daemon keeps serving. No stream is ever attached
// to an oversized session.
func TestSvcRefusesHugeQueueDepth(t *testing.T) {
	srv := startServer(t, Config{PoolSize: 1})
	client := &Client{Mgmt: "http://" + srv.MgmtAddr()}
	for _, depth := range []string{"1152921504606846976", fmt.Sprint(MaxQueueDepth + 1)} {
		resp, err := client.http().Post(client.Mgmt+"/sessions", "application/json",
			strings.NewReader(`{"queue_depth": `+depth+`}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("queue_depth %s: create returned %d, want 400", depth, resp.StatusCode)
		}
	}
	if list, err := client.Sessions(); err != nil || len(list) != 0 {
		t.Fatalf("refused creates left sessions behind: %v (err=%v)", list, err)
	}
	if _, err := client.CreateSession(CreateRequest{QueueDepth: MaxQueueDepth}); err != nil {
		t.Fatalf("queue_depth at the cap refused: %v", err)
	}

	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	data := corpusTraces(t)["corpus-static-d0.wtrace"]
	stats, err := client.CreateSession(CreateRequest{Name: "after-refusal"})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := IngestTCP(info.IngestAddr, stats.ID, data, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.OK {
		t.Fatalf("session after the refusals failed: %s", sum.Error)
	}
	sameResult(t, "after-refusal", sum.Result, replayLocal(t, data))
}

// forgedHeaderTrace returns an empty trace whose header, under a valid
// CRC, declares 2^50 antennas.
func forgedHeaderTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Header{Interval: 0.0125, NumRx: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	empty := buf.Bytes()
	body := empty[12+binary.LittleEndian.Uint32(empty[8:12])+4:]
	js := []byte(`{"interval":0.0125,"num_rx":1125899906842624}`)
	out := append([]byte(nil), empty[:8]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(js)))
	out = append(out, js...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(js))
	return append(out, body...)
}

// TestSvcRefusesForgedTraceHeader: a TCP ingest whose trace header
// declares 2^50 antennas gets a failed close summary, and the daemon
// keeps serving corpus sessions afterwards.
func TestSvcRefusesForgedTraceHeader(t *testing.T) {
	srv := startServer(t, Config{PoolSize: 1})
	client := &Client{Mgmt: "http://" + srv.MgmtAddr()}
	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	forged, err := client.CreateSession(CreateRequest{Name: "forged"})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := IngestTCP(info.IngestAddr, forged.ID, forgedHeaderTrace(t), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.OK || !strings.Contains(sum.Error, "antenna count") {
		t.Fatalf("forged header: summary %+v, want a failure naming the antenna count", sum)
	}

	data := corpusTraces(t)["corpus-static-d0.wtrace"]
	stats, err := client.CreateSession(CreateRequest{Name: "after-forged"})
	if err != nil {
		t.Fatal(err)
	}
	sum, err = IngestTCP(info.IngestAddr, stats.ID, data, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.OK {
		t.Fatalf("session after the forged header failed: %s", sum.Error)
	}
	sameResult(t, "after-forged", sum.Result, replayLocal(t, data))
}

// TestSvcHTTPIngest covers the HTTP ingest plane: POSTing the trace
// body must serve the same result as the TCP plane.
func TestSvcHTTPIngest(t *testing.T) {
	srv := startServer(t, Config{PoolSize: 2})
	client := &Client{Mgmt: "http://" + srv.MgmtAddr()}
	data := corpusTraces(t)["corpus-static-d0.wtrace"]
	want := replayLocal(t, data)

	stats, err := client.CreateSession(CreateRequest{Name: "http"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.http().Post(client.Mgmt+"/sessions/"+stats.ID+"/ingest", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sum, err := readSummary(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.OK {
		t.Fatalf("HTTP ingest failed: %s", sum.Error)
	}
	sameResult(t, "http-ingest", sum.Result, want)
}
