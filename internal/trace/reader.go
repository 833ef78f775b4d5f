package trace

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"witrack/internal/dsp"
	"witrack/internal/motion"
)

// Reader streams frames out of a .wtrace container. It validates the
// magic, version, and every CRC as it goes; any violation — including a
// stream that ends before the trailer — surfaces as an error wrapping
// ErrCorrupt, never as a panic or a silently short trace.
type Reader struct {
	zr     inflater
	h      Header
	buf    []byte
	prev   [][]uint64
	prev16 [][]int16
	word   [12]byte // length/CRC/trailer scratch
	done   bool
	err    error // sticky

	// undelta16 decodes an int16 antenna body in the layout of the
	// trace's version: byte planes from version 3, interleaved before.
	undelta16 func(dst, prev []int16, body []byte)

	// Recover mode (opt-in): CRC-failed records are skipped with a
	// count instead of failing the stream. seq is the next expected
	// record index (delivered frames plus skips); lastIdx the index of
	// the most recently delivered frame. junk receives the frames of
	// skipped complex records; it is allocated on the first one.
	rec     bool
	skipped int
	seq     int
	lastIdx int
	junk    []dsp.ComplexFrame
}

// NewReader parses the container preamble and prepares the compressed
// body for streaming.
func NewReader(r io.Reader) (*Reader, error) {
	var pre [12]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, fmt.Errorf("%w: reading preamble: %v", ErrCorrupt, err)
	}
	if [6]byte(pre[:6]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, pre[:6])
	}
	v := binary.LittleEndian.Uint16(pre[6:8])
	if v < versionPlain || v > Version {
		return nil, fmt.Errorf("%w: version %d (this reader handles %d through %d)", ErrVersion, v, versionPlain, Version)
	}
	hdrLen := binary.LittleEndian.Uint32(pre[8:12])
	if hdrLen == 0 || hdrLen > maxHeaderLen {
		return nil, fmt.Errorf("%w: header length %d out of range", ErrCorrupt, hdrLen)
	}
	hdr := make([]byte, hdrLen+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrCorrupt, err)
	}
	body, sum := hdr[:hdrLen], binary.LittleEndian.Uint32(hdr[hdrLen:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: header CRC %#08x != stored %#08x", ErrCorrupt, got, sum)
	}
	var h Header
	if err := json.Unmarshal(body, &h); err != nil {
		return nil, fmt.Errorf("%w: decoding header: %v", ErrCorrupt, err)
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	tr := &Reader{
		h:         h,
		prev:      make([][]uint64, h.NumRx),
		prev16:    make([][]int16, h.NumRx),
		undelta16: undeltaInterleaved16,
		lastIdx:   -1,
	}
	if v >= versionPlanar16 {
		tr.undelta16 = undeltaPlanes16
	}
	if err := tr.zr.start(r); err != nil {
		return nil, fmt.Errorf("%w: opening compressed body: %v", ErrCorrupt, err)
	}
	return tr, nil
}

// SetRecover switches the reader into (or out of) recover mode: a
// record whose payload fails its CRC no longer kills the stream — it is
// withheld from the caller and counted in Skipped, and reading resyncs
// at the next record. The damaged record still runs through the same
// decoder as an intact one, so the delta chain advances past it (each
// record is a delta against its predecessor; silently dropping one
// would corrupt every later frame): when only the stored CRC was hit
// the chain stays exact, and damage inside the samples stays confined
// to the flipped samples. Framing damage — a broken length field, a
// missing trailer, a trailer/stream mismatch — remains a hard error in
// either mode: past it there is no record boundary to resync to.
//
// Recover mode is for salvaging damaged captures; pair it with
// downstream health monitoring (core's MonitorHealth), since a record
// whose structure was itself unparseable leaves subsequent frames
// decoded against a stale chain.
func (tr *Reader) SetRecover(on bool) { tr.rec = on }

// Skipped returns how many corrupt records recover mode has skipped.
func (tr *Reader) Skipped() int { return tr.skipped }

// FrameIndex returns the record index of the most recently delivered
// frame (-1 before the first). Without skips it counts delivered frames
// from 0; in recover mode it advances past skipped records, exposing
// the gaps.
func (tr *Reader) FrameIndex() int { return tr.lastIdx }

// Header returns the trace metadata.
func (tr *Reader) Header() Header { return tr.h }

// ReadFrameTruthsInto decodes the next frame of a range-bin or float64
// sweep trace with every ground-truth BodyState it carries (one per
// tracked subject, in subject order; nil for truthless frames),
// decoding frames into dst and truths into tdst, both reused when
// correctly sized, so a warm replay loop allocates nothing. It returns
// io.EOF after the last frame (the trailer has then been verified), or
// an error wrapping ErrCorrupt on any damage.
func (tr *Reader) ReadFrameTruthsInto(dst []dsp.ComplexFrame, tdst []motion.BodyState) ([]dsp.ComplexFrame, []motion.BodyState, error) {
	if len(dst) != tr.h.NumRx {
		dst = make([]dsp.ComplexFrame, tr.h.NumRx)
	}
	truths, err := tr.read(dst, nil, tdst)
	if err != nil {
		return nil, nil, err
	}
	return dst, truths, nil
}

// ReadFrameInt16Into decodes the next quantized sweep-domain frame of a
// SampleInt16 trace: per antenna, the frame's concatenated ADC codes
// (SweepsPerFrame × SamplesPerSweep of them), decoded from the wrapping
// delta chain into dst, reusing its slices when correctly sized. Truths
// decode into tdst exactly as in ReadFrameTruthsInto. It returns io.EOF
// after the last frame, or an error wrapping ErrCorrupt on any damage.
func (tr *Reader) ReadFrameInt16Into(dst [][]int16, tdst []motion.BodyState) ([][]int16, []motion.BodyState, error) {
	if len(dst) != tr.h.NumRx {
		dst = make([][]int16, tr.h.NumRx)
	}
	truths, err := tr.read(nil, dst, tdst)
	if err != nil {
		return nil, nil, err
	}
	return dst, truths, nil
}

// read is the read loop behind both typed reads. Exactly one of bins
// and codes is non-nil, holding NumRx slices; it names the encoding
// the caller expects. The loop owns the sticky error, io.EOF after the
// trailer, the encoding check, recover mode's skips, and the index
// sequence of intact records.
func (tr *Reader) read(bins []dsp.ComplexFrame, codes [][]int16, tdst []motion.BodyState) ([]motion.BodyState, error) {
	switch int16Trace := tr.h.Sample == SampleInt16; {
	case tr.err != nil:
		return nil, tr.err
	case tr.done:
		return nil, io.EOF
	case codes != nil && !int16Trace:
		return nil, tr.fail("int16 read on a %q-sample trace", tr.h.Sample)
	case codes == nil && int16Trace:
		return nil, tr.fail("complex-frame read on a %s-sample trace (use ReadFrameInt16Into)", SampleInt16)
	}
	for {
		payload, intact, err := tr.nextRecord()
		if err != nil {
			return nil, err
		}
		if !intact {
			// Recover mode: decode the damaged record into the delta
			// chain, ignoring its index and any error, and resync at the
			// next record. An int16 body decodes in place into the chain.
			if codes != nil {
				tr.decode(payload, nil, tr.prev16, tdst)
			} else {
				if tr.junk == nil {
					tr.junk = make([]dsp.ComplexFrame, tr.h.NumRx)
				}
				tr.decode(payload, tr.junk, nil, tdst)
			}
			tr.skipped++
			tr.seq++
			continue
		}
		idx, truths, err := tr.decode(payload, bins, codes, tdst)
		if err != nil {
			tr.err = err
			return nil, err
		}
		if int(idx) != tr.seq {
			return nil, tr.fail("frame index %d out of sequence (want %d)", idx, tr.seq)
		}
		tr.lastIdx = tr.seq
		tr.seq++
		return truths, nil
	}
}

// decode parses one record payload: its index, its truths into tdst,
// then per antenna the sample count, its bound and its body, then the
// trailing-bytes check. Each body advances its antenna's delta chain
// and lands in bins (XOR-delta complex samples: range bins or float64
// sweeps) or codes (wrapping int16 deltas), whichever is non-nil; its
// slices are resized to the record's counts. A count change restarts
// the antenna's chain slot from zero, as the writer does. Errors are
// returned, not made sticky: recover mode ignores a damaged record's.
func (tr *Reader) decode(payload []byte, bins []dsp.ComplexFrame, codes [][]int16, tdst []motion.BodyState) (uint32, []motion.BodyState, error) {
	c := cursor{b: payload}
	idx := c.u32()
	count := int(c.u8())
	if c.bad {
		return 0, nil, corrupt("frame record too short")
	}
	if count > MaxTruths {
		return 0, nil, corrupt("frame %d: truth count %d exceeds limit %d", tr.seq, count, MaxTruths)
	}
	truths := tdst[:0]
	for i := 0; i < count; i++ {
		s := c.bodyState()
		if c.bad {
			return 0, nil, corrupt("frame %d: record too short for %d truth states", tr.seq, count)
		}
		truths = append(truths, s)
	}
	width := uint64(16) // bytes per sample: a (re, im) pair of float64 bits
	if codes != nil {
		width = 2
	}
	for k := 0; k < tr.h.NumRx; k++ {
		// Bound-check in uint64 before converting: a corrupt 2^31..2^32
		// count must not go negative (and panic in make) on 32-bit
		// platforms, nor overflow the count × width product.
		n32 := c.u32()
		if c.bad || uint64(n32)*width > uint64(c.rem()) {
			return 0, nil, corrupt("frame %d antenna %d: record too short for %d samples", tr.seq, k, n32)
		}
		n := int(n32)
		body := c.bytes(int(width) * n)
		if codes != nil {
			if len(codes[k]) != n {
				codes[k] = make([]int16, n)
			}
			if len(tr.prev16[k]) != n {
				tr.prev16[k] = make([]int16, n)
			}
			tr.undelta16(codes[k], tr.prev16[k], body)
			continue
		}
		if len(bins[k]) != n {
			bins[k] = make(dsp.ComplexFrame, n)
		}
		if len(tr.prev[k]) != 2*n {
			tr.prev[k] = make([]uint64, 2*n)
		}
		unxor64(bins[k], tr.prev[k], body)
	}
	if c.rem() != 0 {
		return 0, nil, corrupt("frame %d: %d trailing bytes in record", tr.seq, c.rem())
	}
	if count == 0 {
		truths = nil
	}
	return idx, truths, nil
}

// nextRecord reads the next framed record from the gzip stream: length
// prefix, payload (into the reader's reusable buffer), payload CRC. It
// reports whether the CRC matched; a mismatch fails the stream unless
// recover mode is on. At the trailer it returns finish's io.EOF.
func (tr *Reader) nextRecord() (payload []byte, intact bool, err error) {
	pre := tr.word[:4]
	if _, err := io.ReadFull(&tr.zr, pre); err != nil {
		return nil, false, tr.fail("stream ended before trailer: %v", err)
	}
	plen := binary.LittleEndian.Uint32(pre)
	if plen == trailerSentinel {
		return nil, false, tr.finish()
	}
	if plen > maxPayloadLen {
		return nil, false, tr.fail("frame record length %d exceeds limit", plen)
	}
	if cap(tr.buf) < int(plen) {
		tr.buf = make([]byte, plen)
	}
	payload = tr.buf[:plen]
	if _, err := io.ReadFull(&tr.zr, payload); err != nil {
		return nil, false, tr.fail("truncated frame record: %v", err)
	}
	if _, err := io.ReadFull(&tr.zr, pre); err != nil {
		return nil, false, tr.fail("truncated frame CRC: %v", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(pre); got != want {
		if !tr.rec {
			return nil, false, tr.fail("frame %d CRC %#08x != stored %#08x", tr.seq, got, want)
		}
		return payload, false, nil
	}
	return payload, true, nil
}

// finish verifies the trailer and the compressed stream's own footer,
// then marks the trace cleanly consumed.
func (tr *Reader) finish() error {
	t := tr.word[:12]
	if _, err := io.ReadFull(&tr.zr, t); err != nil {
		return tr.fail("truncated trailer: %v", err)
	}
	if got, want := crc32.ChecksumIEEE(t[:8]), binary.LittleEndian.Uint32(t[8:]); got != want {
		return tr.fail("trailer CRC %#08x != stored %#08x", got, want)
	}
	// The trailer counts written records; in recover mode skipped ones
	// were still consumed, so compare against seq, which counts both.
	if count := binary.LittleEndian.Uint64(t[:8]); count != uint64(tr.seq) {
		return tr.fail("trailer says %d frames, decoded %d", count, tr.seq)
	}
	// Drain the gzip stream: this forces the decompressor to verify its
	// own CRC/length footer (catching traces truncated inside the final
	// deflate block) and rejects garbage between trailer and stream end.
	switch _, err := tr.zr.Read(tr.word[:1]); err {
	case io.EOF:
	case nil:
		return tr.fail("data after trailer")
	default:
		return tr.fail("verifying stream end: %v", err)
	}
	tr.done = true
	return io.EOF
}

// fail records and returns a corruption error; every later read returns
// the same error.
func (tr *Reader) fail(format string, args ...any) error {
	tr.err = corrupt(format, args...)
	return tr.err
}

// corrupt returns an error wrapping ErrCorrupt.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// cursor decodes a frame payload with explicit bounds checks: any
// overrun sets bad instead of panicking, so corrupt length fields are
// reported as errors.
type cursor struct {
	b   []byte
	i   int
	bad bool
}

func (c *cursor) rem() int { return len(c.b) - c.i }

func (c *cursor) u8() byte {
	if c.rem() < 1 {
		c.bad = true
		return 0
	}
	v := c.b[c.i]
	c.i++
	return v
}

// bytes returns the next n bytes.
func (c *cursor) bytes(n int) []byte {
	if c.rem() < n {
		c.bad = true
		return nil
	}
	b := c.b[c.i : c.i+n]
	c.i += n
	return b
}

func (c *cursor) u32() uint32 {
	if c.rem() < 4 {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.i:])
	c.i += 4
	return v
}

func (c *cursor) u64() uint64 {
	if c.rem() < 8 {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.i:])
	c.i += 8
	return v
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *cursor) bodyState() motion.BodyState {
	var s motion.BodyState
	if c.rem() < bodyStateLen {
		c.bad = true
		return s
	}
	s.Center.X, s.Center.Y, s.Center.Z = c.f64(), c.f64(), c.f64()
	s.Moving = c.u8() != 0
	s.HandActive = c.u8() != 0
	s.Hand.X, s.Hand.Y, s.Hand.Z = c.f64(), c.f64(), c.f64()
	return s
}

// unxor64 decodes one antenna's float64 body: body holds len(dst)
// (re, im) pairs of little-endian bit patterns XORed against prev,
// which advances to this frame's patterns.
func unxor64(dst dsp.ComplexFrame, prev []uint64, body []byte) {
	for i := range dst {
		if len(prev) < 2 || len(body) < 16 {
			return
		}
		re := binary.LittleEndian.Uint64(body) ^ prev[0]
		im := binary.LittleEndian.Uint64(body[8:]) ^ prev[1]
		prev[0], prev[1] = re, im
		dst[i] = complex(math.Float64frombits(re), math.Float64frombits(im))
		prev, body = prev[2:], body[16:]
	}
}

// undeltaInterleaved16 decodes one antenna's version-2 int16 body:
// len(dst) little-endian wrapping deltas against prev, which advances
// to this frame's codes. Wrapping addition inverts the writer's
// wrapping subtraction exactly. dst may be prev itself. The caller
// guarantees body holds 2*len(dst) bytes.
func undeltaInterleaved16(dst, prev []int16, body []byte) {
	prev, body = prev[:len(dst)], body[:2*len(dst)]
	for i := range dst {
		v := prev[i] + int16(uint16(body[2*i])|uint16(body[2*i+1])<<8)
		prev[i] = v
		dst[i] = v
	}
}

// undeltaPlanes16 decodes one antenna's version-3 int16 body: the low
// bytes of len(dst) wrapping deltas against prev, then their high
// bytes. Otherwise it is undeltaInterleaved16.
func undeltaPlanes16(dst, prev []int16, body []byte) {
	n := len(dst)
	prev, lo, hi := prev[:n], body[:n], body[n:][:n]
	for i := range dst {
		v := prev[i] + int16(uint16(lo[i])|uint16(hi[i])<<8)
		prev[i] = v
		dst[i] = v
	}
}
