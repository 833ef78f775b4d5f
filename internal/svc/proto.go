package svc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"witrack/internal/scenario"
)

// The TCP ingest framing: a fixed 6-byte magic ("WTSVC" + version 1),
// a big-endian u16 session-id length, the id bytes, then the raw
// .wtrace stream. The server answers with one JSON CloseSummary when
// the session ends and closes the connection — so a client writes the
// trace, half-closes its write side, and reads the verdict.
var helloMagic = [6]byte{'W', 'T', 'S', 'V', 'C', 1}

// maxIDLen bounds the hello's session-id field; ids are server-issued
// and short, so anything longer is a corrupt or hostile hello.
const maxIDLen = 128

// writeHello frames the session id onto w.
func writeHello(w io.Writer, id string) error {
	if len(id) == 0 || len(id) > maxIDLen {
		return fmt.Errorf("svc: session id length %d outside [1, %d]", len(id), maxIDLen)
	}
	buf := make([]byte, 0, len(helloMagic)+2+len(id))
	buf = append(buf, helloMagic[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(id)))
	buf = append(buf, id...)
	_, err := w.Write(buf)
	return err
}

// readHello parses the ingest hello and returns the session id. It
// reads exactly the hello's bytes, leaving r positioned at the first
// trace byte, and rejects bad magic, a zero-length id, and oversized
// ids without reading further — a stray client speaking the wrong
// protocol is refused after at most 8 bytes.
func readHello(r io.Reader) (string, error) {
	var fixed [len(helloMagic) + 2]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return "", fmt.Errorf("svc: reading hello: %w", err)
	}
	if !bytes.Equal(fixed[:len(helloMagic)], helloMagic[:]) {
		return "", fmt.Errorf("svc: bad hello magic %q", fixed[:len(helloMagic)])
	}
	n := int(binary.BigEndian.Uint16(fixed[len(helloMagic):]))
	if n == 0 || n > maxIDLen {
		return "", fmt.Errorf("svc: hello id length %d outside [1, %d]", n, maxIDLen)
	}
	id := make([]byte, n)
	if _, err := io.ReadFull(r, id); err != nil {
		return "", fmt.Errorf("svc: reading hello id: %w", err)
	}
	return string(id), nil
}

// CloseSummary is the session's final verdict, written as one JSON
// document on the ingest connection (and returned by the HTTP ingest
// route). Result carries the deterministic replay outcome — the exact
// struct witrack-replay snapshots — while Timing carries the wall-clock
// measurements, so consumers can diff the former and ignore the latter.
type CloseSummary struct {
	OK bool `json:"ok"`
	// Error describes why the session failed (shed, watchdog stall,
	// corrupt trace, cancellation); empty on success.
	Error string `json:"error,omitempty"`
	// Result is the deterministic replay outcome; nil when the session
	// failed before scoring completed.
	Result *scenario.ReplayResult `json:"result,omitempty"`
	// Timing is the non-deterministic part: wall-clock rates and fix
	// lags for this session.
	Timing *SessionTiming `json:"timing,omitempty"`
}

// SessionTiming is the wall-clock half of a session's outcome. Nothing
// in here is deterministic; it lives in a separate struct so report
// diffing can exclude it wholesale.
type SessionTiming struct {
	// WallSeconds is the ingest-to-verdict duration.
	WallSeconds float64 `json:"wall_seconds"`
	// FPS is frames scored per wall second.
	FPS float64 `json:"fps"`
	// AllocsPerFrame is the process-wide heap-allocation delta across
	// the run divided by frames — approximate under concurrent sessions,
	// but a cheap canary for a per-frame allocation regression.
	AllocsPerFrame float64 `json:"allocs_per_frame"`
	// BatchSubmitted / BatchCoalesced are always zero: every session
	// transforms its own sweeps, so nothing is submitted to or coalesced
	// across sessions.
	//
	// Deprecated: kept only so existing readers still compile.
	BatchSubmitted int64 `json:"batch_submitted,omitempty"`
	// Deprecated: see BatchSubmitted.
	BatchCoalesced int64 `json:"batch_coalesced,omitempty"`
	// LagMS samples, one per fused frame, of wall-clock delivery lag:
	// (now - session start) - frame time. Meaningful as fix latency only
	// when the client paces the stream to real time; an unpaced client
	// drives the pipeline flat out and lag just measures throughput.
	LagMS []float64 `json:"lag_ms,omitempty"`
}

// writeSummary emits the summary as one JSON line.
func writeSummary(w io.Writer, s *CloseSummary) error {
	data, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// readSummary decodes the server's verdict from the ingest connection.
func readSummary(r io.Reader) (*CloseSummary, error) {
	var s CloseSummary
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("svc: reading close summary: %w", err)
	}
	return &s, nil
}
