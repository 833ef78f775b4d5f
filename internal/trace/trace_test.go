package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"witrack/internal/dsp"
	"witrack/internal/fmcw"
	"witrack/internal/geom"
	"witrack/internal/motion"
)

// testHeader returns a small valid header.
func testHeader(nRx int) Header {
	return Header{
		Name:     "unit",
		Seed:     9,
		Interval: 0.0125,
		NumRx:    nRx,
		Radio:    fmcw.Default(),
		Array:    geom.NewTArray(1.0, 1.5),
	}
}

// testFrames builds a deterministic multi-frame stream with per-frame
// truth: a strong static component plus small per-frame jitter, the
// shape the XOR-delta filter is designed for.
func testFrames(nRx, bins, n int, seed int64) ([][]dsp.ComplexFrame, []motion.BodyState) {
	rng := rand.New(rand.NewSource(seed))
	static := make([]dsp.ComplexFrame, nRx)
	for k := range static {
		static[k] = make(dsp.ComplexFrame, bins)
		for i := range static[k] {
			static[k][i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	frames := make([][]dsp.ComplexFrame, n)
	truths := make([]motion.BodyState, n)
	for f := 0; f < n; f++ {
		frames[f] = make([]dsp.ComplexFrame, nRx)
		for k := 0; k < nRx; k++ {
			frames[f][k] = make(dsp.ComplexFrame, bins)
			for i := range frames[f][k] {
				frames[f][k][i] = static[k][i] + complex(1e-6*rng.NormFloat64(), 1e-6*rng.NormFloat64())
			}
		}
		truths[f] = motion.BodyState{
			Center: geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()},
			Moving: f%2 == 0,
		}
	}
	return frames, truths
}

// truthOf returns frame f's single-subject truth set: truths[f] alone,
// or none when truths is nil.
func truthOf(truths []motion.BodyState, f int) []motion.BodyState {
	if truths == nil {
		return nil
	}
	return truths[f : f+1]
}

// encode writes the frames into a fresh trace and returns its bytes.
func encode(t *testing.T, h Header, frames [][]dsp.ComplexFrame, truths []motion.BodyState) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	for f := range frames {
		if err := tw.WriteFrameTruths(frames[f], truthOf(truths, f)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMultiTruthRoundTrip pins the k-person truth records: a trace
// written with several BodyStates per frame reads them all back, and a
// single-truth frame encodes byte-identically through the pointer-truth
// WriteFrameInt16 and WriteFrameInt16Truths — so the multi-person
// extension cannot disturb the single-person captures.
func TestMultiTruthRoundTrip(t *testing.T) {
	const nRx, bins, n, k = 3, 17, 8, 3
	frames, base := testFrames(nRx, bins, n, 5)
	truths := make([][]motion.BodyState, n)
	for f := range truths {
		truths[f] = make([]motion.BodyState, k)
		for s := 0; s < k; s++ {
			truths[f][s] = base[f]
			truths[f][s].Center.X += float64(s)
		}
	}

	var buf bytes.Buffer
	tw, err := NewWriter(&buf, testHeader(nRx))
	if err != nil {
		t.Fatal(err)
	}
	for f := range frames {
		if err := tw.WriteFrameTruths(frames[f], truths[f]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var dst []dsp.ComplexFrame
	var tdst []motion.BodyState
	for f := 0; f < n; f++ {
		var got []motion.BodyState
		dst, got, err = tr.ReadFrameTruthsInto(dst, tdst[:0])
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		tdst = got
		if len(got) != k {
			t.Fatalf("frame %d: %d truths, want %d", f, len(got), k)
		}
		for s := 0; s < k; s++ {
			if got[s] != truths[f][s] {
				t.Fatalf("frame %d subject %d: %+v != %+v", f, s, got[s], truths[f][s])
			}
		}
		for a := 0; a < nRx; a++ {
			if !bitsEqual(dst[a], frames[f][a]) {
				t.Fatalf("frame %d antenna %d diverged", f, a)
			}
		}
	}
	if _, _, err := tr.ReadFrameTruthsInto(dst, tdst[:0]); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF after last frame, got %v", err)
	}

	// Single-truth frames: both writer entry points, identical bytes.
	one, oneTruths := testFramesInt16(nRx, 16, 4, 6)
	var viaFlag, viaSlice bytes.Buffer
	twA, _ := NewWriter(&viaFlag, testHeaderInt16(nRx))
	twB, _ := NewWriter(&viaSlice, testHeaderInt16(nRx))
	for f := range one {
		if err := twA.WriteFrameInt16(one[f], &oneTruths[f]); err != nil {
			t.Fatal(err)
		}
		if err := twB.WriteFrameInt16Truths(one[f], oneTruths[f:f+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := twA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := twB.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaFlag.Bytes(), viaSlice.Bytes()) {
		t.Fatal("WriteFrameInt16 and WriteFrameInt16Truths(k=1) produced different bytes")
	}

	// The truth-count byte is bounded: an oversized set must refuse.
	twC, _ := NewWriter(&bytes.Buffer{}, testHeader(nRx))
	if err := twC.WriteFrameTruths(frames[0], make([]motion.BodyState, MaxTruths+1)); err == nil {
		t.Fatal("truth count beyond MaxTruths should error")
	}
}

// bitsEqual compares complex frames by their IEEE bit patterns (NaN-safe).
func bitsEqual(a, b dsp.ComplexFrame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

func TestRoundTripLossless(t *testing.T) {
	const nRx, bins, n = 3, 41, 24
	frames, truths := testFrames(nRx, bins, n, 1)
	h := testHeader(nRx)
	h.Bins = bins
	h.Frames = n
	data := encode(t, h, frames, truths)

	tr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got := tr.Header()
	if got.Name != h.Name || got.Seed != h.Seed || got.Interval != h.Interval ||
		got.NumRx != h.NumRx || got.Bins != bins || got.Frames != n {
		t.Fatalf("header did not round-trip: %+v", got)
	}
	if got.Radio != h.Radio {
		t.Fatalf("radio config did not round-trip: %+v != %+v", got.Radio, h.Radio)
	}
	if got.Array.Tx != h.Array.Tx || got.Array.BeamHalfAngle != h.Array.BeamHalfAngle ||
		len(got.Array.Rx) != len(h.Array.Rx) {
		t.Fatalf("array did not round-trip: %+v", got.Array)
	}

	var dst []dsp.ComplexFrame
	var tdst []motion.BodyState
	for f := 0; f < n; f++ {
		dst, tdst, err = tr.ReadFrameTruthsInto(dst, tdst[:0])
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if len(tdst) != 1 {
			t.Fatalf("frame %d carries %d truth records, want 1", f, len(tdst))
		}
		if tdst[0] != truths[f] {
			t.Fatalf("frame %d truth diverged: %+v != %+v", f, tdst[0], truths[f])
		}
		for k := 0; k < nRx; k++ {
			if !bitsEqual(dst[k], frames[f][k]) {
				t.Fatalf("frame %d antenna %d not bit-identical", f, k)
			}
		}
		if tr.FrameIndex() != f {
			t.Fatalf("frame %d: FrameIndex %d", f, tr.FrameIndex())
		}
	}
	if _, _, err := tr.ReadFrameTruthsInto(dst, nil); err != io.EOF {
		t.Fatalf("want io.EOF after last frame, got %v", err)
	}
	if _, _, err := tr.ReadFrameTruthsInto(dst, nil); err != io.EOF {
		t.Fatalf("EOF must be sticky, got %v", err)
	}
	if tr.FrameIndex() != n-1 {
		t.Fatalf("FrameIndex %d after the last frame, want %d", tr.FrameIndex(), n-1)
	}
}

func TestRoundTripNoTruthAndSpecialValues(t *testing.T) {
	h := testHeader(2)
	frames := [][]dsp.ComplexFrame{
		{
			{complex(math.NaN(), math.Inf(1)), complex(0, math.Copysign(0, -1))},
			{complex(math.Inf(-1), 5e-324)}, // antennas may differ in length
		},
		{
			{complex(1, 2), complex(math.MaxFloat64, -math.MaxFloat64)},
			{complex(math.NaN(), math.NaN()), complex(3, 4)}, // length change resets the delta
		},
	}
	data := encode(t, h, frames, nil)
	tr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for f := range frames {
		got, truths, err := tr.ReadFrameTruthsInto(nil, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if truths != nil {
			t.Fatalf("frame %d grew a truth record", f)
		}
		for k := range frames[f] {
			if !bitsEqual(got[k], frames[f][k]) {
				t.Fatalf("frame %d antenna %d not bit-identical", f, k)
			}
		}
	}
	if _, _, err := tr.ReadFrameTruthsInto(nil, nil); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestEmptyTrace(t *testing.T) {
	data := encode(t, testHeader(3), nil, nil)
	tr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.ReadFrameTruthsInto(nil, nil); err != io.EOF {
		t.Fatalf("want io.EOF from empty trace, got %v", err)
	}
}

func TestDeltaCompresses(t *testing.T) {
	// A stream dominated by a static background must compress well: the
	// XOR delta zeroes the high bytes of every bin, and gzip eats them.
	// 1e-12 relative jitter leaves ~40 identical leading mantissa bits
	// per bin, so well over a third of every word is delta-zeroed.
	frames, truths := testFrames(3, 128, 40, 2)
	for f, fr := range frames[1:] {
		for k := range fr {
			for i := range fr[k] {
				base := frames[0][k][i]
				jit := 1e-12 * float64(f+1)
				fr[k][i] = base + complex(jit*real(base), -jit*imag(base))
			}
		}
	}
	data := encode(t, testHeader(3), frames, truths)
	raw := 40 * 3 * 128 * 16
	ratio := float64(raw) / float64(len(data))
	t.Logf("raw %d bytes, trace %d bytes, ratio %.2fx", raw, len(data), ratio)
	if ratio < 1.5 {
		t.Fatalf("compression ratio %.2fx below 1.5x on delta-friendly input", ratio)
	}
}

func TestTruncationAlwaysErrors(t *testing.T) {
	frames, truths := testFrames(2, 16, 6, 3)
	data := encode(t, testHeader(2), frames, truths)
	// Every strict prefix must fail somewhere — at open or during reads —
	// and must never report a clean io.EOF.
	for cut := 0; cut < len(data); cut++ {
		tr, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			continue
		}
		_, readErr := readAll(tr)
		if readErr == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", cut, len(data))
		}
		if !errors.Is(readErr, ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: error %v does not wrap ErrCorrupt", cut, readErr)
		}
	}
}

func TestBitFlipsNeverDecodeSilently(t *testing.T) {
	const nRx, bins, n = 2, 16, 4
	frames, truths := testFrames(nRx, bins, n, 4)
	data := encode(t, testHeader(nRx), frames, truths)
	for pos := 0; pos < len(data); pos++ {
		flipped := append([]byte(nil), data...)
		flipped[pos] ^= 0x10
		tr, err := NewReader(bytes.NewReader(flipped))
		if err != nil {
			continue // preamble damage caught at open
		}
		clean := true
		for f := 0; clean && f < n; f++ {
			got, ts, err := tr.ReadFrameTruthsInto(nil, nil)
			if err != nil {
				clean = false
				break
			}
			if len(ts) != 1 || ts[0] != truths[f] {
				t.Fatalf("bit flip at byte %d/%d silently corrupted frame %d truth", pos, len(data), f)
			}
			for k := 0; k < nRx; k++ {
				if !bitsEqual(got[k], frames[f][k]) {
					t.Fatalf("bit flip at byte %d/%d silently corrupted frame %d antenna %d", pos, len(data), f, k)
				}
			}
		}
		if !clean {
			continue
		}
		// The whole stream decoded: legal only when the flip landed in
		// bits that cannot alter content (gzip member header, deflate
		// stored-block padding) — the frames above already proved the
		// content is bit-identical, and the trailer must agree too.
		if _, _, err := tr.ReadFrameTruthsInto(nil, nil); err != io.EOF {
			continue
		}
	}
}

func TestVersionRejected(t *testing.T) {
	data := encode(t, testHeader(1), nil, nil)
	data[6] = 0xFF // bump the version field
	if _, err := NewReader(bytes.NewReader(data)); !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	data := encode(t, testHeader(1), nil, nil)
	data[0] = 'X'
	if _, err := NewReader(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestHeaderValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Header{Interval: 0.0125}); err == nil {
		t.Fatal("header without antennas must be rejected")
	}
	if _, err := NewWriter(&buf, Header{NumRx: 3}); err == nil {
		t.Fatal("header without frame interval must be rejected")
	}
}

// TestHeaderCaps pins the bounds a header may declare: the antenna
// count and the sweep shape are capped, because a reader and a replaying
// device size their state from them before the first frame.
func TestHeaderCaps(t *testing.T) {
	cases := []struct {
		label  string
		mutate func(*Header)
		ok     bool
	}{
		{"antennas at the cap", func(h *Header) { h.NumRx = MaxNumRx }, true},
		{"antennas past the cap", func(h *Header) { h.NumRx = MaxNumRx + 1 }, false},
		{"2^50 antennas", func(h *Header) { h.NumRx = 1 << 50 }, false},
		{"sweeps at the cap", func(h *Header) { h.SweepsPerFrame = fmcw.MaxSweepsPerFrame }, true},
		{"sweeps past the cap", func(h *Header) { h.SweepsPerFrame = fmcw.MaxSweepsPerFrame + 1 }, false},
		{"samples at the cap", func(h *Header) { h.SamplesPerSweep = fmcw.MaxSamplesPerSweep }, true},
		{"samples past the cap", func(h *Header) { h.SamplesPerSweep = fmcw.MaxSamplesPerSweep + 1 }, false},
		{"2^40 × 2^40 sweep shape", func(h *Header) { h.SweepsPerFrame, h.SamplesPerSweep = 1<<40, 1<<40 }, false},
	}
	for _, c := range cases {
		h := testHeaderInt16(2)
		c.mutate(&h)
		err := h.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: refused: %v", c.label, err)
		}
		if !c.ok && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", c.label, err)
		}
	}
}

func TestWriterRejectsAntennaMismatch(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, testHeader(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteFrameTruths(make([]dsp.ComplexFrame, 2), nil); err == nil {
		t.Fatal("frame with wrong antenna count must be rejected")
	}
}

func TestWriteAfterCloseRejected(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, testHeader(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteFrameTruths(make([]dsp.ComplexFrame, 1), nil); err == nil {
		t.Fatal("WriteFrameTruths after Close must fail")
	}
}

func TestHugePayloadLengthRejected(t *testing.T) {
	// Hand-craft a trace whose first block claims an enormous payload:
	// the reader must refuse before allocating.
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, testHeader(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Find where the gzip stream starts (after magic+version+len+json+crc)
	hdrLen := binary.LittleEndian.Uint32(data[8:12])
	pre := append([]byte(nil), data[:12+hdrLen+4]...)

	var body bytes.Buffer
	zw := gzip.NewWriter(&body)
	var blk [4]byte
	binary.LittleEndian.PutUint32(blk[:], maxPayloadLen+1)
	zw.Write(blk[:])
	zw.Close()

	tr, err := NewReader(bytes.NewReader(append(pre, body.Bytes()...)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.ReadFrameTruthsInto(nil, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for oversized payload, got %v", err)
	}
}
