package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"witrack/internal/dsp"
	"witrack/internal/motion"
)

// splitTrace separates an encoded trace into its uncompressed preamble
// (magic, version, header JSON, header CRC) and the decompressed record
// stream, so tests can corrupt individual records surgically.
func splitTrace(t *testing.T, data []byte) (pre, body []byte) {
	t.Helper()
	hdrLen := binary.LittleEndian.Uint32(data[8:12])
	cut := 12 + int(hdrLen) + 4
	zr, err := gzip.NewReader(bytes.NewReader(data[cut:]))
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), data[:cut]...), body
}

// joinTrace recompresses a (possibly corrupted) record stream back under
// the preamble into a readable trace.
func joinTrace(t *testing.T, pre, body []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	out.Write(pre)
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// record locates record i in a decompressed stream, returning the
// offsets of its payload and stored CRC.
func record(t *testing.T, body []byte, i int) (payloadStart, payloadLen, crcStart int) {
	t.Helper()
	off := 0
	for n := 0; ; n++ {
		plen := binary.LittleEndian.Uint32(body[off : off+4])
		if plen == trailerSentinel {
			t.Fatalf("record %d not found (stream has %d)", i, n)
		}
		if n == i {
			return off + 4, int(plen), off + 4 + int(plen)
		}
		off += 4 + int(plen) + 4
	}
}

// readAll drains a reader, returning every decoded frame set (deep
// copies) until EOF or the first error.
func readAll(tr *Reader) (frames [][]dsp.ComplexFrame, err error) {
	var dst []dsp.ComplexFrame
	for {
		var got []dsp.ComplexFrame
		got, _, err = tr.ReadFrameTruthsInto(dst, nil)
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return frames, err
		}
		dst = got
		cp := make([]dsp.ComplexFrame, len(got))
		for k := range got {
			cp[k] = append(dsp.ComplexFrame(nil), got[k]...)
		}
		frames = append(frames, cp)
	}
}

// drainBits decodes data to its end, in recover mode when rec is set,
// whatever its sample encoding. It returns each delivered frame as its
// bytes (per antenna the sample count and the samples' bit patterns,
// then the truths) with its FrameIndex, the skip count, and the error
// that ended the stream (nil at a clean io.EOF).
func drainBits(t *testing.T, data []byte, rec bool) (frames [][]byte, idx []int, skipped int, err error) {
	t.Helper()
	tr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetRecover(rec)
	var (
		bins   []dsp.ComplexFrame
		codes  [][]int16
		truths []motion.BodyState
	)
	for {
		var b []byte
		if tr.Header().Sample == SampleInt16 {
			codes, truths, err = tr.ReadFrameInt16Into(codes, truths[:0])
			for _, a := range codes {
				b = binary.LittleEndian.AppendUint32(b, uint32(len(a)))
				for _, v := range a {
					b = binary.LittleEndian.AppendUint16(b, uint16(v))
				}
			}
		} else {
			bins, truths, err = tr.ReadFrameTruthsInto(bins, truths[:0])
			for _, a := range bins {
				b = binary.LittleEndian.AppendUint32(b, uint32(len(a)))
				for _, v := range a {
					b = binary.LittleEndian.AppendUint64(b, realBits(v))
					b = binary.LittleEndian.AppendUint64(b, imagBits(v))
				}
			}
		}
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return frames, idx, tr.Skipped(), err
		}
		for i := range truths {
			b = appendBodyState(b, &truths[i])
		}
		frames = append(frames, b)
		idx = append(idx, tr.FrameIndex())
	}
}

// TestRecoverSkipsCRCDamagedRecord pins that recover mode salvages a
// record with the decoder itself, for every record layout: a flip in
// record i's stored CRC leaves its payload (and so the delta chain)
// intact, so strict mode fails at i, and recover mode withholds exactly
// frame i and returns every other frame bit-identical to the clean
// decode, with the index gap visible, one skip and a clean io.EOF.
// Every record is damaged in turn, the first and the last included.
func TestRecoverSkipsCRCDamagedRecord(t *testing.T) {
	const nRx, n = 3, 7
	bins, binTruths := testFrames(nRx, 21, n, 11)
	hSweeps := testHeader(nRx)
	hSweeps.Domain, hSweeps.SweepsPerFrame, hSweeps.SamplesPerSweep = DomainSweeps, 2, 8
	sweeps, sweepTruths := testFrames(nRx, 8, n, 12) // 16 float64 samples as 8 complex pairs
	h16 := testHeaderInt16(nRx)
	codes, codeTruths := testFramesInt16(nRx, 16, n, 13)
	for _, c := range []struct {
		layout  string
		version uint16
		data    []byte
	}{
		{"range bins", versionPlain, encode(t, testHeader(nRx), bins, binTruths)},
		{"float64 sweeps", versionPlain, encode(t, hSweeps, sweeps, sweepTruths)},
		{"int16 interleaved", 2, encodeInt16V2(t, h16, codes, codeTruths)},
		{"int16 planar", versionPlanar16, encodeInt16(t, h16, codes, codeTruths)},
	} {
		t.Run(c.layout, func(t *testing.T) {
			if v := binary.LittleEndian.Uint16(c.data[6:8]); v != c.version {
				t.Fatalf("stamped version %d, want %d", v, c.version)
			}
			clean, _, _, err := drainBits(t, c.data, false)
			if err != nil || len(clean) != n {
				t.Fatalf("clean decode: %d frames, then %v", len(clean), err)
			}
			for bad := 0; bad < n; bad++ {
				pre, body := splitTrace(t, c.data)
				_, _, crcAt := record(t, body, bad)
				body[crcAt] ^= 0x01
				data := joinTrace(t, pre, body)

				got, _, _, err := drainBits(t, data, false)
				if !errors.Is(err, ErrCorrupt) || len(got) != bad {
					t.Fatalf("record %d: strict mode decoded %d frames, then %v; want %d, then ErrCorrupt", bad, len(got), err, bad)
				}

				got, idx, skipped, err := drainBits(t, data, true)
				if err != nil {
					t.Fatalf("record %d: recover mode: %v", bad, err)
				}
				if len(got) != n-1 || skipped != 1 {
					t.Fatalf("record %d: %d frames with %d skips, want %d and 1", bad, len(got), skipped, n-1)
				}
				for i := range got {
					f := i
					if i >= bad {
						f++
					}
					if idx[i] != f {
						t.Fatalf("record %d: surviving frame %d has FrameIndex %d, want %d", bad, i, idx[i], f)
					}
					if !bytes.Equal(got[i], clean[f]) {
						t.Fatalf("record %d: frame %d not bit-identical to the clean decode", bad, f)
					}
				}
			}
		})
	}
}

// TestRecoverFirstRecordDamage exercises salvage before any prev state
// exists: the chain slot starts from zero (frame 0 is a delta against
// zero), so even losing the very first record keeps later frames exact.
func TestRecoverFirstRecordDamage(t *testing.T) {
	const nRx, bins, n = 2, 9, 6
	frames, truths := testFrames(nRx, bins, n, 12)
	pre, body := splitTrace(t, encode(t, testHeader(nRx), frames, truths))
	_, _, crcAt := record(t, body, 0)
	body[crcAt+2] ^= 0x80
	tr, err := NewReader(bytes.NewReader(joinTrace(t, pre, body)))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetRecover(true)
	got, err := readAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n-1 || tr.Skipped() != 1 {
		t.Fatalf("decoded %d frames with %d skips, want %d and 1", len(got), tr.Skipped(), n-1)
	}
	for f := 1; f < n; f++ {
		for k := 0; k < nRx; k++ {
			if !bitsEqual(got[f-1][k], frames[f][k]) {
				t.Fatalf("frame %d antenna %d not bit-identical after first-record skip", f, k)
			}
		}
	}
}

// TestRecoverPayloadDamageIsBounded pins the lossy salvage path: a flip
// inside a record's sample data still advances the chain (via the
// damaged delta), so the stream completes and the error stays confined
// to the flipped bits — frames before the damage are untouched and the
// overall shape survives.
func TestRecoverPayloadDamageIsBounded(t *testing.T) {
	const nRx, bins, n, bad = 2, 13, 8, 3
	frames, truths := testFrames(nRx, bins, n, 13)
	pre, body := splitTrace(t, encode(t, testHeader(nRx), frames, truths))
	pStart, pLen, _ := record(t, body, bad)
	body[pStart+pLen-3] ^= 0x04 // deep in the last antenna's samples
	tr, err := NewReader(bytes.NewReader(joinTrace(t, pre, body)))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetRecover(true)
	got, err := readAll(tr)
	if err != nil {
		t.Fatalf("recover mode must survive payload damage: %v", err)
	}
	if len(got) != n-1 || tr.Skipped() != 1 {
		t.Fatalf("decoded %d frames with %d skips, want %d and 1", len(got), tr.Skipped(), n-1)
	}
	for f := 0; f < bad; f++ {
		for k := 0; k < nRx; k++ {
			if !bitsEqual(got[f][k], frames[f][k]) {
				t.Fatalf("pre-damage frame %d antenna %d not bit-identical", f, k)
			}
		}
	}
	// Downstream frames may differ from the originals only at the
	// damaged bit position; everything else must match exactly.
	for f := bad + 1; f < n; f++ {
		diff := 0
		for k := 0; k < nRx; k++ {
			for i := range frames[f][k] {
				g, w := got[f-1][k][i], frames[f][k][i]
				if realBits(g) != realBits(w) {
					diff++
				}
				if imagBits(g) != imagBits(w) {
					diff++
				}
			}
		}
		if diff > 1 {
			t.Fatalf("frame %d: %d components diverged, damage not confined", f, diff)
		}
	}
}

// TestRecoverDefaultsOff: SetRecover is opt-in, and toggling it off
// restores strict behavior.
func TestRecoverDefaultsOff(t *testing.T) {
	frames, truths := testFrames(2, 7, 4, 14)
	pre, body := splitTrace(t, encode(t, testHeader(2), frames, truths))
	_, _, crcAt := record(t, body, 1)
	body[crcAt] ^= 0xFF
	data := joinTrace(t, pre, body)

	tr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetRecover(true)
	tr.SetRecover(false)
	if _, err := readAll(tr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt with recover toggled back off, got %v", err)
	}
}

// TestRecoverStructuralDamageStillFatal: recover mode only forgives CRC
// failures; broken framing (an impossible record length) remains fatal.
func TestRecoverStructuralDamageStillFatal(t *testing.T) {
	frames, truths := testFrames(2, 7, 4, 15)
	pre, body := splitTrace(t, encode(t, testHeader(2), frames, truths))
	pStart, _, _ := record(t, body, 2)
	binary.LittleEndian.PutUint32(body[pStart-4:pStart], maxPayloadLen+7)
	tr, err := NewReader(bytes.NewReader(joinTrace(t, pre, body)))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetRecover(true)
	if _, err := readAll(tr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for framing damage, got %v", err)
	}
}

func realBits(c complex128) uint64 { return math.Float64bits(real(c)) }
func imagBits(c complex128) uint64 { return math.Float64bits(imag(c)) }

// TestRecoverSkipCountsFramesOnTruthDamage pins the Skips accounting
// contract witrack-replay -recover reports: in the v1 container every
// record is exactly one frame (truths ride inside the record), so a
// CRC failure caused by a flip in a record's *truth region* must count
// as one skipped frame — not zero, not one per embedded truth record.
// The damage never touches the antenna delta bytes, so salvage keeps
// the XOR chain exact and every surviving frame (and its truths) reads
// back bit-identical, with the index gap where the damaged frame was.
func TestRecoverSkipCountsFramesOnTruthDamage(t *testing.T) {
	const nRx, bins, n, bad, k = 2, 9, 8, 3, 2
	frames, base := testFrames(nRx, bins, n, 16)
	truths := make([][]motion.BodyState, n)
	for f := range truths {
		second := base[f]
		second.Center.X += 1.5 // a distinct second person
		second.Center.Y += 0.5
		truths[f] = []motion.BodyState{base[f], second}
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

	pre, body := splitTrace(t, buf.Bytes())
	pStart, _, _ := record(t, body, bad)
	// Offset 4 is the truth count; offset 5 begins truth 0's BodyState.
	// Flip deep inside the truth block, leaving every delta byte alone.
	body[pStart+5] ^= 0x20
	tr, err := NewReader(bytes.NewReader(joinTrace(t, pre, body)))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetRecover(true)

	var dst []dsp.ComplexFrame
	var tdst []motion.BodyState
	seen := 0
	for f := 0; f < n; f++ {
		if f == bad {
			continue
		}
		dst, tdst, err = tr.ReadFrameTruthsInto(dst, tdst[:0])
		if err != nil {
			t.Fatalf("surviving frame %d: %v", f, err)
		}
		if tr.FrameIndex() != f {
			t.Fatalf("surviving frame %d: FrameIndex %d", f, tr.FrameIndex())
		}
		if len(tdst) != k {
			t.Fatalf("frame %d: %d truths, want %d", f, len(tdst), k)
		}
		for s := 0; s < k; s++ {
			if tdst[s] != truths[f][s] {
				t.Fatalf("frame %d truth %d diverged: %+v != %+v", f, s, tdst[s], truths[f][s])
			}
		}
		for kk := 0; kk < nRx; kk++ {
			if !bitsEqual(dst[kk], frames[f][kk]) {
				t.Fatalf("surviving frame %d antenna %d not bit-identical", f, kk)
			}
		}
		seen++
	}
	if _, _, err := tr.ReadFrameTruthsInto(dst, nil); err != io.EOF {
		t.Fatalf("want io.EOF after recovery, got %v", err)
	}
	// The accounting contract: one damaged record == one skipped FRAME,
	// regardless of how many truths the record embedded.
	if tr.Skipped() != 1 {
		t.Fatalf("Skipped() = %d, want 1 (one record = one frame)", tr.Skipped())
	}
	if seen != n-1 || tr.FrameIndex() != n-1 {
		t.Fatalf("saw %d frames ending at index %d, want %d ending at %d", seen, tr.FrameIndex(), n-1, n-1)
	}
}
