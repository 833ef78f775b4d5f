package core

import (
	"errors"
	"fmt"
	"io"

	"witrack/internal/dsp"
	"witrack/internal/trace"
)

// TraceSource adapts a trace.Reader into the pipeline's FrameSource:
// the on-disk replay path. Batches and their frame buffers are recycled
// through a fixed ring and the reader decodes into them in place, so a
// warm replay stream allocates nothing per frame — replaying a corpus
// costs decompression, not synthesis.
//
// FrameSource has no error channel (Next returns nil at end of stream),
// so decode failures latch into Err; callers must check it after the
// stream drains to distinguish a clean end from a corrupt trace.
type TraceSource struct {
	r    *trace.Reader
	ring *batchRing
	// packed receives a float64 sweep record before its samples are
	// unpacked into the batch, so a batch in flight holds one copy of
	// its samples, not two.
	packed []dsp.ComplexFrame
	err    error
}

// NewTraceSource wraps an opened trace reader with a private recycling
// ring (the right choice for a one-shot replay).
func NewTraceSource(r *trace.Reader) *TraceSource {
	return &TraceSource{r: r, ring: newBatchRing(ringCapacity)}
}

// FrameArena is a shared recycling arena for pipeline frame batches: a
// mempool-style pool of decoded-frame buffers that outlives any single
// replay. A daemon serving many short trace sessions hands every
// TraceSource the same arena, so the complex-frame and truth buffers
// one session warmed up are decoded into again by the next session
// instead of being re-allocated per connection. Safe for concurrent use
// by any number of sessions; buffers of mismatched shape (a trace with
// different bins or antenna count) are simply resized on first decode.
type FrameArena struct {
	ring *batchRing
}

// defaultArenaCapacity retains enough batches for dozens of concurrent
// sessions at pipeline depth.
const defaultArenaCapacity = 256

// NewFrameArena builds an arena retaining at most capacity recycled
// batches (capacity <= 0 selects a default sized for a multi-session
// daemon).
func NewFrameArena(capacity int) *FrameArena {
	if capacity <= 0 {
		capacity = defaultArenaCapacity
	}
	return &FrameArena{ring: newBatchRing(capacity)}
}

// NewTraceSourceArena is NewTraceSource recycling batches through the
// shared arena instead of a private ring. A nil arena falls back to a
// private ring.
func NewTraceSourceArena(r *trace.Reader, a *FrameArena) *TraceSource {
	if a == nil {
		return NewTraceSource(r)
	}
	return &TraceSource{r: r, ring: a.ring}
}

// Header returns the trace metadata.
func (s *TraceSource) Header() trace.Header { return s.r.Header() }

// NumRx returns the antenna count of the trace.
func (s *TraceSource) NumRx() int { return s.r.Header().NumRx }

// Err returns the first decode error, if any. io.EOF (a clean end of
// trace) is not an error and reports nil.
func (s *TraceSource) Err() error { return s.err }

// Skipped reports how many corrupt records the underlying reader has
// skipped so far (always zero unless the reader is in recover mode).
func (s *TraceSource) Skipped() int { return s.r.Skipped() }

// Next decodes the next recorded batch, or returns nil at end of trace
// or on the first decode error (latched into Err).
func (s *TraceSource) Next() *FrameBatch {
	if s.err != nil {
		return nil
	}
	h := s.r.Header()
	if h.Sample == trace.SampleInt16 {
		return s.nextInt16()
	}
	sweeps := h.Domain == trace.DomainSweeps
	b := s.ring.get()
	// Range bins decode into the batch, whose frames the workers read; a
	// float64 sweep record decodes into the source's packed buffer. Each
	// is sized from the header, so a cold one is one buffer, not the
	// reader's per-antenna allocations.
	dst, n := &b.Frames, h.Bins
	if sweeps {
		dst, n = &s.packed, h.SweepsPerFrame*h.SamplesPerSweep/2
	}
	if !holds(*dst, h.NumRx, n) {
		*dst = cut[dsp.ComplexFrame](h.NumRx, n)
	}
	frames, truths, err := s.r.ReadFrameTruthsInto(*dst, b.States[:0])
	if err != nil {
		s.ring.put(b)
		if !errors.Is(err, io.EOF) {
			s.err = err
		}
		return nil
	}
	// The recorded index, not the decode count: in recover mode a skipped
	// record leaves a gap in Index/T exactly like a dropped frame would.
	index := s.r.FrameIndex()
	b.Index = index
	b.T = float64(index) * h.Interval
	b.States = truths
	b.synth = nil
	b.sweeps16 = nil
	if sweeps {
		b.Frames = nil
		err = s.unpackSweeps(b, frames)
	} else {
		b.Frames = frames
		b.sweeps, b.samples = nil, nil
		err = checkBins(frames, h.Bins)
	}
	if err != nil {
		s.ring.put(b)
		s.err = err
		return nil
	}
	return b
}

// holds reports whether s is nRx slices of n elements each.
func holds[S ~[]E, E any](s []S, nRx, n int) bool {
	if len(s) != nRx {
		return false
	}
	for _, x := range s {
		if len(x) != n {
			return false
		}
	}
	return true
}

// cut returns nRx slices of n elements each, cut from one backing
// array: two allocations, whatever nRx is.
func cut[S ~[]E, E any](nRx, n int) []S {
	backing := make([]E, nRx*n)
	s := make([]S, nRx)
	for k := range s {
		s[k] = backing[k*n : (k+1)*n : (k+1)*n]
	}
	return s
}

// checkBins rejects a bin-domain record whose per-antenna frames do not
// all hold the header's bin count, so a short or long record ends the
// replay with an error instead of reaching the trackers.
func checkBins(frames []dsp.ComplexFrame, bins int) error {
	for k, f := range frames {
		if len(f) != bins {
			return fmt.Errorf("core: bin-domain record for antenna %d has %d bins, header says %d", k, len(f), bins)
		}
	}
	return nil
}

// nextInt16 decodes the next quantized sweep-domain batch: the reader
// delta-decodes each antenna's ADC codes into the batch's recycled
// backing buffers, and the per-sweep job views are re-sliced over them
// in place — no dequantized staging copy exists anywhere; the workers'
// frame body sums the codes in int32 and dequantizes the sum once. A
// cold batch costs six allocations: itself, its codes and its views
// (two each, see cut) and its truths.
func (s *TraceSource) nextInt16() *FrameBatch {
	h := s.r.Header()
	spf, ns := h.SweepsPerFrame, h.SamplesPerSweep
	b := s.ring.get()
	if !holds(b.codes16, h.NumRx, spf*ns) {
		b.codes16 = cut[[]int16](h.NumRx, spf*ns)
	}
	codes, truths, err := s.r.ReadFrameInt16Into(b.codes16, b.States[:0])
	if err != nil {
		s.ring.put(b)
		if !errors.Is(err, io.EOF) {
			s.err = err
		}
		return nil
	}
	if !holds(b.sweeps16, len(codes), spf) {
		b.sweeps16 = cut[[][]int16](len(codes), spf)
	}
	for k, c := range codes {
		if len(c) != spf*ns {
			s.ring.put(b)
			s.err = fmt.Errorf("core: int16 sweep record for antenna %d has %d codes, want %d (%d sweeps × %d samples)",
				k, len(c), spf*ns, spf, ns)
			return nil
		}
		for j, views := 0, b.sweeps16[k]; j < spf; j++ {
			views[j] = c[j*ns : (j+1)*ns]
		}
	}
	index := s.r.FrameIndex()
	b.Index = index
	b.T = float64(index) * h.Interval
	b.States = truths
	b.codes16 = codes
	b.scale16 = h.ADCScale
	b.Frames = nil
	b.synth = nil
	b.sweeps, b.samples = nil, nil
	return b
}

// unpackSweeps expands a sweep-domain record's pairwise-packed complex
// values back into float64 sweep samples: per antenna one buffer of the
// frame's samples in order (reused across recycled batches), which the
// per-sweep views slice, so the pipeline workers run the full window +
// RFFT + averaging path on them. A pair may straddle two sweeps when a
// sweep holds an odd sample count.
func (s *TraceSource) unpackSweeps(b *FrameBatch, frames []dsp.ComplexFrame) error {
	h := s.r.Header()
	spf, ns := h.SweepsPerFrame, h.SamplesPerSweep
	for k, f := range frames {
		if len(f) != spf*ns/2 {
			return fmt.Errorf("core: sweep-domain record for antenna %d has %d values, want %d (%d sweeps × %d samples)",
				k, len(f), spf*ns/2, spf, ns)
		}
	}
	if !holds(b.samples, len(frames), spf*ns) {
		b.samples = cut[[]float64](len(frames), spf*ns)
	}
	if !holds(b.sweeps, len(frames), spf) {
		b.sweeps = cut[[][]float64](len(frames), spf)
	}
	for k, f := range frames {
		x := b.samples[k]
		for i, c := range f {
			x[2*i], x[2*i+1] = real(c), imag(c)
		}
		for j, views := 0, b.sweeps[k]; j < spf; j++ {
			views[j] = x[j*ns : (j+1)*ns]
		}
	}
	return nil
}

// Recycle returns a fully processed batch to the ring; its frame
// buffers are decoded into again by a future Next.
func (s *TraceSource) Recycle(b *FrameBatch) { s.ring.put(b) }
