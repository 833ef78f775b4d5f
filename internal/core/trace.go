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
	err  error
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
	if s.r.Header().Sample == trace.SampleInt16 {
		return s.nextInt16()
	}
	b := s.ring.get()
	frames, truths, err := s.r.ReadFrameTruthsInto(b.Frames, b.States[:0])
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
	b.T = float64(index) * s.r.Header().Interval
	b.Frames = frames
	b.States = truths
	b.synth = nil
	b.sweeps16 = nil
	if s.r.Header().Domain == trace.DomainSweeps {
		err = s.unpackSweeps(b, frames)
	} else {
		b.sweeps = nil
		err = checkBins(frames, s.r.Header().Bins)
	}
	if err != nil {
		s.ring.put(b)
		s.err = err
		return nil
	}
	return b
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
// frame body sums the codes in int32 and dequantizes the sum once.
func (s *TraceSource) nextInt16() *FrameBatch {
	h := s.r.Header()
	b := s.ring.get()
	codes, truths, err := s.r.ReadFrameInt16Into(b.codes16, b.States[:0])
	if err != nil {
		s.ring.put(b)
		if !errors.Is(err, io.EOF) {
			s.err = err
		}
		return nil
	}
	spf, ns := h.SweepsPerFrame, h.SamplesPerSweep
	if len(b.sweeps16) != len(codes) {
		b.sweeps16 = make([][][]int16, len(codes))
	}
	for k, c := range codes {
		if len(c) != spf*ns {
			s.ring.put(b)
			s.err = fmt.Errorf("core: int16 sweep record for antenna %d has %d codes, want %d (%d sweeps × %d samples)",
				k, len(c), spf*ns, spf, ns)
			return nil
		}
		views := b.sweeps16[k]
		if len(views) != spf {
			views = make([][]int16, spf)
		}
		for j := 0; j < spf; j++ {
			views[j] = c[j*ns : (j+1)*ns]
		}
		b.sweeps16[k] = views
	}
	index := s.r.FrameIndex()
	b.Index = index
	b.T = float64(index) * h.Interval
	b.States = truths
	b.codes16 = codes
	b.scale16 = h.ADCScale
	b.Frames = nil
	b.synth = nil
	b.sweeps = nil
	return b
}

// unpackSweeps expands a sweep-domain record's pairwise-packed complex
// values back into per-sweep float64 sample buffers (reused across
// recycled batches), so the pipeline workers run the full window + RFFT
// + averaging path on them. The packed Frames buffers stay on the batch
// for ring reuse; materialize prefers b.sweeps when set.
func (s *TraceSource) unpackSweeps(b *FrameBatch, frames []dsp.ComplexFrame) error {
	h := s.r.Header()
	spf, ns := h.SweepsPerFrame, h.SamplesPerSweep
	bins := spf * ns / 2
	if len(b.sweeps) != len(frames) {
		b.sweeps = make([][][]float64, len(frames))
	}
	for k, f := range frames {
		if len(f) != bins {
			return fmt.Errorf("core: sweep-domain record for antenna %d has %d values, want %d (%d sweeps × %d samples)",
				k, len(f), bins, spf, ns)
		}
		sw := b.sweeps[k]
		if len(sw) != spf {
			sw = make([][]float64, spf)
		}
		for j := 0; j < spf; j++ {
			buf := sw[j]
			if len(buf) != ns {
				buf = make([]float64, ns)
			}
			base := j * ns
			for t := 0; t < ns; t++ {
				c := f[(base+t)/2]
				if (base+t)%2 == 0 {
					buf[t] = real(c)
				} else {
					buf[t] = imag(c)
				}
			}
			sw[j] = buf
		}
		b.sweeps[k] = sw
	}
	return nil
}

// Recycle returns a fully processed batch to the ring; its frame
// buffers are decoded into again by a future Next.
func (s *TraceSource) Recycle(b *FrameBatch) { s.ring.put(b) }
