package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"witrack/internal/dsp"
	"witrack/internal/motion"
)

// testHeaderInt16 returns a small valid SampleInt16 sweep-domain header.
func testHeaderInt16(nRx int) Header {
	h := testHeader(nRx)
	h.Domain = DomainSweeps
	h.SweepsPerFrame = 2
	h.SamplesPerSweep = 8
	h.Sample = SampleInt16
	h.ADCBits = 14
	h.ADCScale = 1.0 / 8192
	return h
}

// testFramesInt16 builds a deterministic int16 code stream: a static
// background per antenna plus small per-frame code jitter — the shape
// the delta filter is designed for — with rail values mixed in.
func testFramesInt16(nRx, samples, n int, seed int64) ([][][]int16, []motion.BodyState) {
	rng := rand.New(rand.NewSource(seed))
	static := make([][]int16, nRx)
	for k := range static {
		static[k] = make([]int16, samples)
		for i := range static[k] {
			static[k][i] = int16(rng.Intn(1<<14) - 1<<13)
		}
	}
	frames := make([][][]int16, n)
	truths := make([]motion.BodyState, n)
	for f := 0; f < n; f++ {
		frames[f] = make([][]int16, nRx)
		for k := 0; k < nRx; k++ {
			frames[f][k] = make([]int16, samples)
			for i := range frames[f][k] {
				// Wrapping add: deltas may cross the int16 rails, which the
				// wrapping codec must survive exactly.
				frames[f][k][i] = static[k][i] + int16(rng.Intn(7)-3)
			}
		}
		if f == n/2 && samples > 0 {
			frames[f][0][0] = -32768 // extreme codes round-trip too
			frames[f][nRx-1][samples-1] = 32767
		}
		truths[f] = motion.BodyState{Moving: f%2 == 0}
		truths[f].Center.X = rng.Float64()
	}
	return frames, truths
}

// encodeInt16 writes the code frames into a fresh int16 trace.
func encodeInt16(t *testing.T, h Header, frames [][][]int16, truths []motion.BodyState) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	for f := range frames {
		if err := tw.WriteFrameInt16Truths(frames[f], truthOf(truths, f)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// buildTrace assembles a container by hand: the preamble stamped with
// version, then a gzip body framing each payload with its length and
// CRC, then the trailer.
func buildTrace(t *testing.T, version uint16, h Header, payloads [][]byte) []byte {
	t.Helper()
	hdr, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	pre := append([]byte(nil), Magic[:]...)
	pre = binary.LittleEndian.AppendUint16(pre, version)
	pre = binary.LittleEndian.AppendUint32(pre, uint32(len(hdr)))
	pre = append(pre, hdr...)
	pre = binary.LittleEndian.AppendUint32(pre, crc32.ChecksumIEEE(hdr))
	var body []byte
	for _, p := range payloads {
		body = binary.LittleEndian.AppendUint32(body, uint32(len(p)))
		body = append(body, p...)
		body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(p))
	}
	count := binary.LittleEndian.AppendUint64(nil, uint64(len(payloads)))
	body = binary.LittleEndian.AppendUint32(body, trailerSentinel)
	body = append(body, count...)
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(count))
	return joinTrace(t, pre, body)
}

// encodeInt16V2 is the version-2 int16 encoder, kept as the reference
// for the old layout: each antenna's wrapping deltas are interleaved as
// little-endian int16s. truths may be nil.
func encodeInt16V2(t *testing.T, h Header, frames [][][]int16, truths []motion.BodyState) []byte {
	t.Helper()
	prev := make([][]int16, h.NumRx)
	payloads := make([][]byte, len(frames))
	for f, fr := range frames {
		b := binary.LittleEndian.AppendUint32(nil, uint32(f))
		if truths != nil {
			b = appendBodyState(append(b, 1), &truths[f])
		} else {
			b = append(b, 0)
		}
		for k, codes := range fr {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(codes)))
			if len(prev[k]) != len(codes) {
				prev[k] = make([]int16, len(codes))
			}
			for i, v := range codes {
				b = binary.LittleEndian.AppendUint16(b, uint16(v-prev[k][i]))
				prev[k][i] = v
			}
		}
		payloads[f] = b
	}
	return buildTrace(t, 2, h, payloads)
}

// int16Equal compares code slices exactly.
func int16Equal(a, b []int16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// readAllInt16 drains an int16 reader, returning deep copies of every
// decoded frame until EOF or the first error.
func readAllInt16(tr *Reader) (frames [][][]int16, err error) {
	var dst [][]int16
	for {
		var got [][]int16
		got, _, err = tr.ReadFrameInt16Into(dst, nil)
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return frames, err
		}
		dst = got
		cp := make([][]int16, len(got))
		for k := range got {
			cp[k] = append([]int16(nil), got[k]...)
		}
		frames = append(frames, cp)
	}
}

// TestInt16RoundTripLossless pins the int16 encoding end to end: codes
// (rails included), truths, and header quantizer fields all round-trip
// exactly, the container stamps version 3, and a plain trace written by
// the same build still stamps version 1 so the checked-in corpus bytes
// cannot churn.
func TestInt16RoundTripLossless(t *testing.T) {
	const nRx, samples, n = 3, 16, 12
	h := testHeaderInt16(nRx)
	frames, truths := testFramesInt16(nRx, samples, n, 21)
	data := encodeInt16(t, h, frames, truths)

	if v := binary.LittleEndian.Uint16(data[6:8]); v != Version {
		t.Fatalf("int16 trace stamped version %d, want %d", v, Version)
	}
	plain := encode(t, testHeader(nRx), nil, nil)
	if v := binary.LittleEndian.Uint16(plain[6:8]); v != versionPlain {
		t.Fatalf("plain trace stamped version %d, want %d", v, versionPlain)
	}

	tr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got := tr.Header()
	if got.Sample != SampleInt16 || got.ADCBits != h.ADCBits || got.ADCScale != h.ADCScale {
		t.Fatalf("quantizer fields did not round-trip: %+v", got)
	}
	var dst [][]int16
	var tdst []motion.BodyState
	for f := 0; f < n; f++ {
		dst, tdst, err = tr.ReadFrameInt16Into(dst, tdst[:0])
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if len(tdst) != 1 || tdst[0] != truths[f] {
			t.Fatalf("frame %d truth diverged", f)
		}
		for k := 0; k < nRx; k++ {
			if !int16Equal(dst[k], frames[f][k]) {
				t.Fatalf("frame %d antenna %d codes diverged", f, k)
			}
		}
	}
	if _, _, err := tr.ReadFrameInt16Into(dst, nil); err != io.EOF {
		t.Fatalf("want io.EOF after last frame, got %v", err)
	}
	if tr.FrameIndex() != n-1 {
		t.Fatalf("FrameIndex %d after the last frame, want %d", tr.FrameIndex(), n-1)
	}
}

// TestInt16EncodingGuards pins the writer/reader dispatch: each frame
// entry point only works on the matching header encoding, so a caller
// can never mix record layouts inside one container.
func TestInt16EncodingGuards(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, testHeaderInt16(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteFrameTruths(make([]dsp.ComplexFrame, 2), nil); err == nil {
		t.Fatal("WriteFrameTruths on an int16 trace must error")
	}
	tw2, err := NewWriter(&bytes.Buffer{}, testHeader(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := tw2.WriteFrameInt16Truths(make([][]int16, 2), nil); err == nil {
		t.Fatal("WriteFrameInt16Truths on a plain trace must error")
	}
	if err := tw.WriteFrameInt16Truths(make([][]int16, 1), nil); err == nil {
		t.Fatal("antenna-count mismatch must error")
	}

	frames, truths := testFramesInt16(2, 8, 3, 22)
	data := encodeInt16(t, testHeaderInt16(2), frames, truths)
	tr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.ReadFrameTruthsInto(nil, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("complex read on int16 trace: want ErrCorrupt, got %v", err)
	}
	plain := encode(t, testHeader(1), nil, nil)
	tr2, err := NewReader(bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr2.ReadFrameInt16Into(nil, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("int16 read on plain trace: want ErrCorrupt, got %v", err)
	}
}

// TestInt16HeaderValidation pins the header domain: quantizer fields
// are required on int16 traces and rejected elsewhere.
func TestInt16HeaderValidation(t *testing.T) {
	bad := []func(*Header){
		func(h *Header) { h.ADCBits = 0 },
		func(h *Header) { h.ADCBits = 13 },
		func(h *Header) { h.ADCScale = 0 },
		func(h *Header) { h.ADCScale = -1 },
		func(h *Header) { h.Sample = "int8" },
		func(h *Header) { h.Domain = ""; h.SweepsPerFrame = 0; h.SamplesPerSweep = 0 },
	}
	for i, mutate := range bad {
		h := testHeaderInt16(2)
		mutate(&h)
		if err := h.Validate(); err == nil {
			t.Fatalf("mutation %d accepted: %+v", i, h)
		}
	}
	h := testHeader(2)
	h.ADCBits = 14
	if err := h.Validate(); err == nil {
		t.Fatal("quantizer fields on a plain trace accepted")
	}
	// An odd per-frame sample count is fine for int16 (no complex
	// pairing), but not for float64 sweeps.
	h2 := testHeaderInt16(2)
	h2.SamplesPerSweep = 7
	if err := h2.Validate(); err != nil {
		t.Fatalf("odd int16 sweep shape rejected: %v", err)
	}
	h2.Sample = ""
	h2.ADCBits, h2.ADCScale = 0, 0
	h2.SweepsPerFrame = 1
	if err := h2.Validate(); err == nil {
		t.Fatal("odd float64 sweep shape accepted")
	}
}

// TestInt16DeltaCompresses pins the reason the encoding exists: a
// static-background code stream delta-codes to near-zero bodies, and
// the compressed container lands well below a quarter of the float64
// raw size (the tentpole's >= 3x floor with margin at the unit level).
func TestInt16DeltaCompresses(t *testing.T) {
	const nRx, samples, n = 3, 512, 40
	frames, truths := testFramesInt16(nRx, samples, n, 23)
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, testHeaderInt16(nRx))
	if err != nil {
		t.Fatal(err)
	}
	for f := range frames {
		if err := tw.WriteFrameInt16Truths(frames[f], truths[f:f+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	// RawBytes counts the encoded (uncompressed) container bytes.
	wantRaw := int64(0)
	wantRaw += int64(12 + 4) // magic+version+len, header CRC
	wantRaw += int64(16)     // trailer
	perRecord := 4 + 1 + bodyStateLen + nRx*(4+2*samples) + 8
	wantRaw += int64(n * perRecord)
	raw := tw.RawBytes()
	if raw < wantRaw || raw > wantRaw+int64(maxHeaderLen) {
		t.Fatalf("RawBytes %d outside plausible range (records alone are %d)", raw, wantRaw)
	}
	// The float64 sweep encoding of the same samples is 8 bytes each;
	// int16 delta + gzip must beat it by >= 4x here (static-dominated).
	f64Raw := n * nRx * samples * 8
	ratio := float64(f64Raw) / float64(buf.Len())
	t.Logf("float64 raw %d bytes, int16 trace %d bytes, ratio %.2fx", f64Raw, buf.Len(), ratio)
	if ratio < 4 {
		t.Fatalf("compression ratio %.2fx below 4x on delta-friendly codes", ratio)
	}
}

// TestInt16TruncationAlwaysErrors extends the truncation discipline to
// the int16 record path: every strict prefix fails, never a clean EOF.
func TestInt16TruncationAlwaysErrors(t *testing.T) {
	frames, truths := testFramesInt16(2, 12, 6, 24)
	data := encodeInt16(t, testHeaderInt16(2), frames, truths)
	for cut := 0; cut < len(data); cut++ {
		tr, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			continue
		}
		_, readErr := readAllInt16(tr)
		if readErr == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", cut, len(data))
		}
		if !errors.Is(readErr, ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: error %v does not wrap ErrCorrupt", cut, readErr)
		}
	}
}

// TestInt16BitFlipsNeverDecodeSilently extends the bit-flip discipline:
// any single flip either fails loudly or leaves every decoded code
// bit-identical — never a silently wrong sample.
func TestInt16BitFlipsNeverDecodeSilently(t *testing.T) {
	const nRx, samples, n = 2, 10, 4
	frames, truths := testFramesInt16(nRx, samples, n, 25)
	data := encodeInt16(t, testHeaderInt16(nRx), frames, truths)
	for pos := 0; pos < len(data); pos++ {
		flipped := append([]byte(nil), data...)
		flipped[pos] ^= 0x10
		tr, err := NewReader(bytes.NewReader(flipped))
		if err != nil {
			continue // preamble damage caught at open
		}
		got, err := readAllInt16(tr)
		if err != nil {
			continue
		}
		if len(got) != n {
			t.Fatalf("bit flip at byte %d: clean decode of %d/%d frames", pos, len(got), n)
		}
		for f := range got {
			for k := range got[f] {
				if !int16Equal(got[f][k], frames[f][k]) {
					t.Fatalf("bit flip at byte %d/%d silently corrupted frame %d antenna %d", pos, len(data), f, k)
				}
			}
		}
	}
}

// TestInt16RecoverMode pins recover-mode salvage on the int16 delta
// chain: a CRC-only flip skips exactly the damaged frame and every
// survivor reads back bit-identical; a flip inside the sample deltas
// still completes the stream with the damage confined to one sample
// position.
func TestInt16RecoverMode(t *testing.T) {
	const nRx, samples, n, bad = 2, 14, 8, 3
	frames, truths := testFramesInt16(nRx, samples, n, 26)
	encoded := encodeInt16(t, testHeaderInt16(nRx), frames, truths)

	// CRC damage: clean salvage, survivors exact.
	pre, body := splitTrace(t, encoded)
	_, _, crcAt := record(t, body, bad)
	body[crcAt] ^= 0x01
	tr, err := NewReader(bytes.NewReader(joinTrace(t, pre, body)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAllInt16(tr)
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict mode: want ErrCorrupt, got %v", err)
	}
	if len(got) != bad {
		t.Fatalf("strict mode decoded %d frames before failing, want %d", len(got), bad)
	}
	tr, err = NewReader(bytes.NewReader(joinTrace(t, pre, body)))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetRecover(true)
	got, err = readAllInt16(tr)
	if err != nil {
		t.Fatalf("recover mode: %v", err)
	}
	if len(got) != n-1 || tr.Skipped() != 1 {
		t.Fatalf("decoded %d frames with %d skips, want %d and 1", len(got), tr.Skipped(), n-1)
	}
	gi := 0
	for f := 0; f < n; f++ {
		if f == bad {
			continue
		}
		for k := 0; k < nRx; k++ {
			if !int16Equal(got[gi][k], frames[f][k]) {
				t.Fatalf("surviving frame %d antenna %d not bit-identical", f, k)
			}
		}
		gi++
	}

	// Payload damage deep in the samples: the wrapped delta still
	// advances the chain, so later frames differ in at most the one
	// damaged sample position.
	pre, body = splitTrace(t, encoded)
	pStart, pLen, _ := record(t, body, bad)
	body[pStart+pLen-3] ^= 0x04
	tr, err = NewReader(bytes.NewReader(joinTrace(t, pre, body)))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetRecover(true)
	got, err = readAllInt16(tr)
	if err != nil {
		t.Fatalf("recover mode must survive payload damage: %v", err)
	}
	if len(got) != n-1 || tr.Skipped() != 1 {
		t.Fatalf("decoded %d frames with %d skips, want %d and 1", len(got), tr.Skipped(), n-1)
	}
	for f := bad + 1; f < n; f++ {
		diff := 0
		for k := 0; k < nRx; k++ {
			for i := range frames[f][k] {
				if got[f-1][k][i] != frames[f][k][i] {
					diff++
				}
			}
		}
		if diff > 1 {
			t.Fatalf("frame %d: %d samples diverged, damage not confined", f, diff)
		}
	}
}

// TestInt16Version2Decodes pins the old layout's read path, which no
// checked-in trace exercises any more: the same codes and truths written
// as a version-2 trace (interleaved deltas, by the reference encoder)
// and as a version-3 trace (byte planes) both decode back to the input.
// In recover mode a version-2 trace with a CRC-damaged record salvages
// through the interleaved layout, so every later frame is bit-exact.
func TestInt16Version2Decodes(t *testing.T) {
	const nRx, samples, n, bad = 3, 16, 10, 4
	h := testHeaderInt16(nRx)
	frames, truths := testFramesInt16(nRx, samples, n, 27)
	v2 := encodeInt16V2(t, h, frames, truths)
	v3 := encodeInt16(t, h, frames, truths)
	for _, c := range []struct {
		version uint16
		data    []byte
	}{{2, v2}, {versionPlanar16, v3}} {
		if v := binary.LittleEndian.Uint16(c.data[6:8]); v != c.version {
			t.Fatalf("trace stamped version %d, want %d", v, c.version)
		}
		tr, err := NewReader(bytes.NewReader(c.data))
		if err != nil {
			t.Fatal(err)
		}
		var dst [][]int16
		var tdst []motion.BodyState
		for f := 0; f < n; f++ {
			if dst, tdst, err = tr.ReadFrameInt16Into(dst, tdst[:0]); err != nil {
				t.Fatalf("version %d frame %d: %v", c.version, f, err)
			}
			if len(tdst) != 1 || tdst[0] != truths[f] {
				t.Fatalf("version %d frame %d: truth diverged", c.version, f)
			}
			for k := range dst {
				if !int16Equal(dst[k], frames[f][k]) {
					t.Fatalf("version %d frame %d antenna %d: codes diverged", c.version, f, k)
				}
			}
		}
		if _, _, err := tr.ReadFrameInt16Into(dst, nil); err != io.EOF {
			t.Fatalf("version %d: want io.EOF after the last frame, got %v", c.version, err)
		}
	}

	pre, body := splitTrace(t, v2)
	_, _, crcAt := record(t, body, bad)
	body[crcAt] ^= 0x01
	tr, err := NewReader(bytes.NewReader(joinTrace(t, pre, body)))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetRecover(true)
	got, err := readAllInt16(tr)
	if err != nil {
		t.Fatalf("recover mode: %v", err)
	}
	if len(got) != n-1 || tr.Skipped() != 1 {
		t.Fatalf("decoded %d frames with %d skips, want %d and 1", len(got), tr.Skipped(), n-1)
	}
	for f := bad + 1; f < n; f++ {
		for k := 0; k < nRx; k++ {
			if !int16Equal(got[f-1][k], frames[f][k]) {
				t.Fatalf("frame %d antenna %d after the salvaged record not bit-identical", f, k)
			}
		}
	}
}

// TestInt16PlanarLayout pins the version-3 record byte for byte, so
// swapped planes or a changed byte order cannot pass as a round trip:
// per antenna, the count, then the low bytes of the wrapping deltas,
// then their high bytes.
func TestInt16PlanarLayout(t *testing.T) {
	h := testHeaderInt16(1)
	h.SweepsPerFrame, h.SamplesPerSweep = 1, 2
	codes := [][][]int16{{{0x1234, -2}}, {{-0x8000, 0x7FFF}}}
	// Frame 0 deltas against zero: 0x1234, 0xFFFE. Frame 1 wraps:
	// -0x8000-0x1234 = 0x6DCC and 0x7FFF-(-2) = 0x8001.
	payloads := [][]byte{
		{0, 0, 0, 0, 0, 2, 0, 0, 0, 0x34, 0xFE, 0x12, 0xFF},
		{1, 0, 0, 0, 0, 2, 0, 0, 0, 0xCC, 0x01, 0x6D, 0x80},
	}
	_, body := splitTrace(t, encodeInt16(t, h, codes, nil))
	for f, want := range payloads {
		start, n, _ := record(t, body, f)
		if got := body[start : start+n]; !bytes.Equal(got, want) {
			t.Fatalf("writer's record %d is % x, want % x", f, got, want)
		}
	}
	tr, err := NewReader(bytes.NewReader(buildTrace(t, versionPlanar16, h, payloads)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAllInt16(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(codes) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(codes))
	}
	for f := range codes {
		if !int16Equal(got[f][0], codes[f][0]) {
			t.Fatalf("frame %d decoded to %v, want %v", f, got[f][0], codes[f][0])
		}
	}
}
