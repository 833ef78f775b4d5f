package trace

import (
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"witrack/internal/dsp"
	"witrack/internal/motion"
)

// Writer streams frames into a .wtrace container. Frames are encoded,
// XOR-delta filtered, and compressed as they arrive, so a recording
// session holds only one frame in memory. Close writes the trailer;
// a trace without one reads back as corrupt, which is the point — a
// recorder killed mid-capture must not leave a silently short corpus.
type Writer struct {
	body   sink
	h      Header
	buf    []byte     // the framed record being written
	planes []int      // its sample planes, as [start, end) offset pairs
	prev   [][]uint64 // per antenna, previous frame's raw bits (re, im interleaved)
	prev16 [][]int16  // per antenna, previous frame's codes (int16 traces)
	one    [1]motion.BodyState
	n      int
	raw    int64
	closed bool
	err    error
}

// sink takes a Writer's framed records, in order, into the compressed
// body.
type sink interface {
	// record appends one framed record. planes lists its sample planes
	// as ascending [start, end) offset pairs.
	record(rec []byte, planes []int) error
	// close appends the trailer (none when the trace ends in error) and
	// ends the body.
	close(trailer []byte) error
}

// gzipSink is the body of a bin trace: one compress/gzip stream at
// BestCompression.
type gzipSink struct{ zw *gzip.Writer }

func (s gzipSink) record(rec []byte, _ []int) error {
	_, err := s.zw.Write(rec)
	return err
}

func (s gzipSink) close(trailer []byte) error {
	if _, err := s.zw.Write(trailer); err != nil {
		s.zw.Close()
		return err
	}
	return s.zw.Close()
}

// NewWriter validates the header and writes the container preamble
// (magic, version, header JSON, header CRC) to w. The caller owns w;
// Close flushes the compressor but does not close w.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	hdr, err := json.Marshal(&h)
	if err != nil {
		return nil, fmt.Errorf("trace: encoding header: %w", err)
	}
	if len(hdr) > maxHeaderLen {
		return nil, fmt.Errorf("trace: header JSON is %d bytes (max %d)", len(hdr), maxHeaderLen)
	}
	// Stamp the lowest version that can describe this header: plain
	// traces stay byte-identical to version-1 output (the checked-in
	// corpus does not churn), int16 traces get the version of their
	// byte-planar record layout.
	version := uint16(versionPlain)
	if h.Sample == SampleInt16 {
		version = Version
	}
	pre := make([]byte, 0, len(Magic)+2+4+len(hdr)+4)
	pre = append(pre, Magic[:]...)
	pre = binary.LittleEndian.AppendUint16(pre, version)
	pre = binary.LittleEndian.AppendUint32(pre, uint32(len(hdr)))
	pre = append(pre, hdr...)
	pre = binary.LittleEndian.AppendUint32(pre, crc32.ChecksumIEEE(hdr))
	if _, err := w.Write(pre); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	// Sweep traces get a member assembled plane by plane (member.go).
	// Bin traces keep one compress/gzip stream, so their bytes, and the
	// checked-in bin corpus, stay what they were.
	var body sink
	if h.Domain == DomainSweeps {
		body, err = newMember(w)
	} else {
		var zw *gzip.Writer
		zw, err = gzip.NewWriterLevel(w, gzip.BestCompression)
		body = gzipSink{zw}
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &Writer{
		body:   body,
		h:      h,
		prev:   make([][]uint64, h.NumRx),
		prev16: make([][]int16, h.NumRx),
		raw:    int64(len(pre)),
	}, nil
}

// Header returns the header the trace was opened with.
func (tw *Writer) Header() Header { return tw.h }

// RawBytes returns how many bytes the trace encodes to before
// compression (preamble plus framed records plus, after Close, the
// trailer) — the numerator of the codec's compression ratio.
func (tw *Writer) RawBytes() int64 { return tw.raw }

// WriteFrameTruths appends one frame of a range-bin or float64 sweep
// trace: the per-antenna complex frames (one per receive antenna, in
// antenna order) plus one ground-truth BodyState per tracked subject
// (none for a truthless frame). The slices are fully encoded before it
// returns, so callers may reuse their buffers.
func (tw *Writer) WriteFrameTruths(frames []dsp.ComplexFrame, truths []motion.BodyState) error {
	if tw.h.Sample == SampleInt16 {
		return fmt.Errorf("trace: WriteFrameTruths on a %s-sample trace (use WriteFrameInt16Truths)", SampleInt16)
	}
	b, err := tw.head(len(frames), truths)
	if err != nil {
		return err
	}
	for k, f := range frames {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(f)))
		if len(tw.prev[k]) != 2*len(f) {
			tw.prev[k] = make([]uint64, 2*len(f))
		}
		p := tw.prev[k]
		at := len(b)
		for i, v := range f {
			re, im := math.Float64bits(real(v)), math.Float64bits(imag(v))
			b = binary.LittleEndian.AppendUint64(b, re^p[2*i])
			b = binary.LittleEndian.AppendUint64(b, im^p[2*i+1])
			p[2*i], p[2*i+1] = re, im
		}
		tw.planes = append(tw.planes, at, len(b))
	}
	return tw.writeRecord(b)
}

// WriteFrameInt16 is WriteFrameInt16Truths with at most one
// ground-truth state.
//
// Deprecated: use WriteFrameInt16Truths. The perfbench module is the
// last caller.
func (tw *Writer) WriteFrameInt16(sweeps [][]int16, truth *motion.BodyState) error {
	if truth == nil {
		return tw.WriteFrameInt16Truths(sweeps, nil)
	}
	tw.one[0] = *truth
	return tw.WriteFrameInt16Truths(sweeps, tw.one[:])
}

// WriteFrameInt16Truths appends one quantized sweep-domain frame of a
// SampleInt16 trace: per antenna, the frame's sweeps concatenated in
// sweep order as raw ADC codes, plus one ground-truth BodyState per
// tracked subject. The codes are fully encoded (delta-filtered against
// the previous frame) before it returns, so callers may reuse their
// buffers.
func (tw *Writer) WriteFrameInt16Truths(sweeps [][]int16, truths []motion.BodyState) error {
	if tw.h.Sample != SampleInt16 {
		return fmt.Errorf("trace: WriteFrameInt16Truths on a %q-sample trace", tw.h.Sample)
	}
	b, err := tw.head(len(sweeps), truths)
	if err != nil {
		return err
	}
	for k, codes := range sweeps {
		n := len(codes)
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
		if len(tw.prev16[k]) != n {
			tw.prev16[k] = make([]int16, n)
		}
		p := tw.prev16[k]
		at := len(b)
		b = slices.Grow(b, 2*n)[:at+2*n]
		lo, hi := b[at:at+n], b[at+n:at+2*n]
		for i, v := range codes {
			// Wrapping int16 subtraction is exactly invertible by wrapping
			// addition, whatever the magnitudes — no clamping, no loss.
			d := uint16(v - p[i])
			lo[i], hi[i] = byte(d), byte(d>>8)
			p[i] = v
		}
		tw.planes = append(tw.planes, at, at+n, at+n, at+2*n)
	}
	return tw.writeRecord(b)
}

// head checks one frame against the writer — sticky error, Close, the
// antenna count, the truth cap — and starts its framed record in the
// reusable buffer: room for the length prefix, then the index, the
// truth count and the truths.
func (tw *Writer) head(nRx int, truths []motion.BodyState) ([]byte, error) {
	if tw.err != nil {
		return nil, tw.err
	}
	if tw.closed {
		return nil, fmt.Errorf("trace: write after Close")
	}
	if nRx != tw.h.NumRx {
		return nil, fmt.Errorf("trace: frame has %d antennas, header says %d", nRx, tw.h.NumRx)
	}
	if len(truths) > MaxTruths {
		return nil, fmt.Errorf("trace: %d ground-truth states per frame (max %d)", len(truths), MaxTruths)
	}
	tw.planes = tw.planes[:0]
	b := append(tw.buf[:0], 0, 0, 0, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(tw.n))
	b = append(b, byte(len(truths)))
	for i := range truths {
		b = appendBodyState(b, &truths[i])
	}
	return b, nil
}

// writeRecord frames the payload b holds after its length prefix —
// the length, the payload, the payload CRC — keeps b as the reusable
// record buffer, and hands the record to the body.
func (tw *Writer) writeRecord(b []byte) error {
	n := len(b) - 4
	if n > maxPayloadLen {
		tw.buf = b
		tw.err = fmt.Errorf("trace: frame record is %d bytes (max %d)", n, maxPayloadLen)
		return tw.err
	}
	binary.LittleEndian.PutUint32(b, uint32(n))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[4:]))
	tw.buf = b
	if err := tw.body.record(b, tw.planes); err != nil {
		tw.err = fmt.Errorf("trace: %w", err)
		return tw.err
	}
	tw.raw += int64(len(b))
	tw.n++
	return nil
}

// Close writes the trailer (sentinel, frame count, CRC) and ends the
// compressed body. The underlying writer is left open.
func (tw *Writer) Close() error {
	if tw.closed {
		return tw.err
	}
	tw.closed = true
	if tw.err != nil {
		tw.body.close(nil)
		return tw.err
	}
	var t [16]byte
	binary.LittleEndian.PutUint32(t[0:], trailerSentinel)
	binary.LittleEndian.PutUint64(t[4:], uint64(tw.n))
	binary.LittleEndian.PutUint32(t[12:], crc32.ChecksumIEEE(t[4:12]))
	if err := tw.body.close(t[:]); err != nil {
		tw.err = fmt.Errorf("trace: %w", err)
		return tw.err
	}
	tw.raw += int64(len(t))
	return nil
}

// bodyStateLen is the encoded size of a BodyState record: 6 float64
// fields plus 2 flag bytes.
const bodyStateLen = 6*8 + 2

// appendBodyState encodes the ground-truth record.
func appendBodyState(b []byte, s *motion.BodyState) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Center.X))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Center.Y))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Center.Z))
	b = append(b, boolByte(s.Moving), boolByte(s.HandActive))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Hand.X))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Hand.Y))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Hand.Z))
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
