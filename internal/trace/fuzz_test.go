package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"witrack/internal/dsp"
	"witrack/internal/geom"
	"witrack/internal/motion"
)

// fuzzFrames derives a small frame stream from raw fuzz bytes: the
// antenna count, bin counts, truth flags, and every complex bit pattern
// (including NaNs, infinities, and denormals) come straight from data,
// so the round-trip property is exercised over arbitrary payloads.
func fuzzFrames(data []byte) (nRx int, frames [][]dsp.ComplexFrame, truths [][]motion.BodyState) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	next64 := func() float64 {
		var w uint64
		for i := 0; i < 8; i++ {
			w = w<<8 | uint64(next())
		}
		return math.Float64frombits(w)
	}
	nRx = 1 + int(next()%3)
	n := int(next() % 5)
	for f := 0; f < n; f++ {
		fr := make([]dsp.ComplexFrame, nRx)
		for k := range fr {
			fr[k] = make(dsp.ComplexFrame, int(next()%9))
			for i := range fr[k] {
				fr[k][i] = complex(next64(), next64())
			}
		}
		frames = append(frames, fr)
		if next()%2 == 0 {
			truths = append(truths, []motion.BodyState{{
				Center:     geom.Vec3{X: next64(), Y: next64(), Z: next64()},
				Moving:     next()%2 == 0,
				HandActive: next()%2 == 0,
				Hand:       geom.Vec3{X: next64(), Y: next64(), Z: next64()},
			}})
		} else {
			truths = append(truths, nil)
		}
	}
	return nRx, frames, truths
}

// fuzzFramesInt16 derives an int16 code stream from raw fuzz bytes,
// rails and sign boundaries included.
func fuzzFramesInt16(data []byte) (nRx int, frames [][][]int16) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nRx = 1 + int(next()%3)
	n := int(next() % 5)
	for f := 0; f < n; f++ {
		fr := make([][]int16, nRx)
		for k := range fr {
			fr[k] = make([]int16, int(next()%9))
			for i := range fr[k] {
				fr[k][i] = int16(uint16(next()) | uint16(next())<<8)
			}
		}
		frames = append(frames, fr)
	}
	return nRx, frames
}

// drainTrace decodes data as a .wtrace until EOF or error, following
// the header's record encoding. It must never panic, whatever the
// bytes are.
func drainTrace(data []byte) error {
	tr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if tr.Header().Sample == SampleInt16 {
		var dst [][]int16
		for {
			var err error
			if dst, _, err = tr.ReadFrameInt16Into(dst, nil); err != nil {
				return err
			}
		}
	}
	var dst []dsp.ComplexFrame
	for {
		var err error
		if dst, _, err = tr.ReadFrameTruthsInto(dst, nil); err != nil {
			return err
		}
	}
}

// FuzzTraceRoundTrip proves two properties over arbitrary inputs:
// encode→decode is bit-exact lossless (frames, truth, special float
// values included), and damaged inputs — raw fuzz bytes as a file,
// truncations, bit flips — are reported as errors, never panics and
// never silently wrong frames.
func FuzzTraceRoundTrip(f *testing.F) {
	// Seed with a real trace plus damaged variants so coverage starts
	// past the preamble.
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, testHeader(2))
	if err != nil {
		f.Fatal(err)
	}
	fr := []dsp.ComplexFrame{{complex(1, 2), complex(3, 4)}, {complex(5, 6)}}
	truth := motion.BodyState{Center: geom.Vec3{X: 1, Y: 2, Z: 3}, Moving: true}
	if err := tw.WriteFrameTruths(fr, []motion.BodyState{truth}); err != nil {
		f.Fatal(err)
	}
	if err := tw.WriteFrameTruths(fr, nil); err != nil {
		f.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(seed)-3])
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("WTRACE garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: arbitrary bytes decode defensively (error or clean
		// EOF, never a panic).
		drainTrace(data)

		// Property 2: a trace built from fuzz-derived frames round-trips
		// bit-exactly, as range bins and as float64 sweeps, and
		// compress/gzip reads a sweep trace's member to the bytes the
		// package's inflater yields.
		nRx, frames, truths := fuzzFrames(data)
		for _, h := range []Header{testHeader(nRx), testSweepHeader(nRx)} {
			var buf bytes.Buffer
			tw, err := NewWriter(&buf, h)
			if err != nil {
				t.Fatal(err)
			}
			for i := range frames {
				if err := tw.WriteFrameTruths(frames[i], truths[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			encoded := buf.Bytes()
			if h.Domain == DomainSweeps {
				gzipReadsMember(t, encoded)
			}

			tr, err := NewReader(bytes.NewReader(encoded))
			if err != nil {
				t.Fatalf("decoding just-encoded trace: %v", err)
			}
			var dst []dsp.ComplexFrame
			var tdst []motion.BodyState
			for i := range frames {
				dst, tdst, err = tr.ReadFrameTruthsInto(dst, tdst[:0])
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if (tdst != nil) != (truths[i] != nil) || len(tdst) != len(truths[i]) {
					t.Fatalf("frame %d: %d truths, want %d", i, len(tdst), len(truths[i]))
				}
				if tdst != nil && !bodyStateBitsEqual(tdst[0], truths[i][0]) {
					t.Fatalf("frame %d: truth not bit-identical", i)
				}
				for k := 0; k < nRx; k++ {
					if !bitsEqual(dst[k], frames[i][k]) {
						t.Fatalf("frame %d antenna %d not bit-identical", i, k)
					}
				}
			}
			if _, _, err := tr.ReadFrameTruthsInto(dst, nil); err != io.EOF {
				t.Fatalf("want io.EOF after round trip, got %v", err)
			}

			// Property 3: every truncation of the encoding errors (no
			// truncated trace passes for complete), and a bit flip at a
			// data-derived position never panics.
			if len(encoded) > 0 {
				cut := int(uint(len(data)) * 31 % uint(len(encoded)))
				if err := drainTrace(encoded[:cut]); err == nil {
					t.Fatalf("truncation to %d/%d bytes decoded cleanly", cut, len(encoded))
				}
				pos := int(uint(len(data))*37%uint(len(encoded)) | 1)
				mutated := append([]byte(nil), encoded...)
				mutated[pos%len(mutated)] ^= 1 << (uint(len(data)) % 8)
				drainTrace(mutated)
			}
		}

		// Property 4: the int16 record encoding honors the same
		// contracts — exact round-trip of fuzz-derived codes, a member
		// compress/gzip reads alike, truncations always error, flips never
		// panic.
		nRx16, codes := fuzzFramesInt16(data)
		var buf16 bytes.Buffer
		tw16, err := NewWriter(&buf16, testHeaderInt16(nRx16))
		if err != nil {
			t.Fatal(err)
		}
		for i := range codes {
			if err := tw16.WriteFrameInt16Truths(codes[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw16.Close(); err != nil {
			t.Fatal(err)
		}
		enc16 := buf16.Bytes()
		gzipReadsMember(t, enc16)
		tr16, err := NewReader(bytes.NewReader(enc16))
		if err != nil {
			t.Fatalf("decoding just-encoded int16 trace: %v", err)
		}
		var dst16 [][]int16
		for i := range codes {
			dst16, _, err = tr16.ReadFrameInt16Into(dst16, nil)
			if err != nil {
				t.Fatalf("int16 frame %d: %v", i, err)
			}
			for k := 0; k < nRx16; k++ {
				if !int16Equal(dst16[k], codes[i][k]) {
					t.Fatalf("int16 frame %d antenna %d not bit-identical", i, k)
				}
			}
		}
		if _, _, err := tr16.ReadFrameInt16Into(dst16, nil); err != io.EOF {
			t.Fatalf("want io.EOF after int16 round trip, got %v", err)
		}
		if len(enc16) > 0 {
			cut := int(uint(len(data)) * 29 % uint(len(enc16)))
			if err := drainTrace(enc16[:cut]); err == nil {
				t.Fatalf("int16 truncation to %d/%d bytes decoded cleanly", cut, len(enc16))
			}
			mutated := append([]byte(nil), enc16...)
			mutated[int(uint(len(data))*41%uint(len(mutated)))] ^= 1 << (uint(len(data)) % 8)
			drainTrace(mutated)
		}

		// Property 5: the same codes written in the version-2 layout
		// (interleaved deltas, by the reference encoder) decode equal, and
		// a bit flip in that trace never panics.
		enc2 := encodeInt16V2(t, testHeaderInt16(nRx16), codes, nil)
		tr2, err := NewReader(bytes.NewReader(enc2))
		if err != nil {
			t.Fatalf("decoding a version-2 int16 trace: %v", err)
		}
		got2, err := readAllInt16(tr2)
		if err != nil {
			t.Fatalf("version-2 int16 trace: %v", err)
		}
		if len(got2) != len(codes) {
			t.Fatalf("version-2 int16 trace decoded %d frames, want %d", len(got2), len(codes))
		}
		for i := range codes {
			for k := 0; k < nRx16; k++ {
				if !int16Equal(got2[i][k], codes[i][k]) {
					t.Fatalf("version-2 int16 frame %d antenna %d not bit-identical", i, k)
				}
			}
		}
		mutated := append([]byte(nil), enc2...)
		mutated[int(uint(len(data))*43%uint(len(mutated)))] ^= 1 << (uint(len(data)) % 8)
		drainTrace(mutated)
	})
}

// gzipReadsMember fails t unless compress/gzip, reading one member,
// decodes the body of an encoded trace to the bytes the package's
// inflater yields, both without error.
func gzipReadsMember(t *testing.T, data []byte) {
	t.Helper()
	want, err := gunzipAll(bytes.NewReader(bodyOf(data)))
	if err != nil {
		t.Fatalf("compress/gzip reading the member: %v", err)
	}
	got, err := inflateAll(bytes.NewReader(bodyOf(data)))
	if err != nil {
		t.Fatalf("inflating the member: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("inflater decoded %d bytes, compress/gzip %d", len(got), len(want))
	}
}

func bodyStateBitsEqual(a, b motion.BodyState) bool {
	vec := func(u, v geom.Vec3) bool {
		return math.Float64bits(u.X) == math.Float64bits(v.X) &&
			math.Float64bits(u.Y) == math.Float64bits(v.Y) &&
			math.Float64bits(u.Z) == math.Float64bits(v.Z)
	}
	return vec(a.Center, b.Center) && vec(a.Hand, b.Hand) &&
		a.Moving == b.Moving && a.HandActive == b.HandActive
}

// frameHeaderJSON wraps header JSON in a valid preamble, length and CRC
// and appends a valid empty body, so the JSON is the only thing a
// reader can object to.
func frameHeaderJSON(t testing.TB, js []byte) []byte {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, testHeader(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	empty := buf.Bytes()
	body := empty[12+binary.LittleEndian.Uint32(empty[8:12])+4:]
	out := append([]byte(nil), Magic[:]...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(js)))
	out = append(out, js...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(js))
	return append(out, body...)
}

// FuzzTraceHeader reaches the header JSON, which FuzzTraceRoundTrip
// cannot: a mutated header there fails its CRC. Whatever the JSON
// declares, opening and draining the trace must end in an error or
// EOF, never a panic.
func FuzzTraceHeader(f *testing.F) {
	for _, h := range []Header{testHeader(2), testHeaderInt16(3)} {
		js, err := json.Marshal(&h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
	}
	f.Add([]byte(`{"interval":0.0125,"num_rx":1125899906842624}`))
	f.Add([]byte(`{"interval":0.0125,"num_rx":2,"domain":"sweeps","sweeps_per_frame":1099511627776,"samples_per_sweep":1099511627776,"sample":"int16","adc_bits":14,"adc_scale":0.001}`))
	f.Fuzz(func(t *testing.T, js []byte) {
		err := drainTrace(frameHeaderJSON(t, js))
		if !errors.Is(err, io.EOF) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("drain ended with %v, want EOF or a trace error", err)
		}
	})
}
