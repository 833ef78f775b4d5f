package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"testing"

	"witrack/internal/dsp"
)

// testSweepHeader returns a small valid float64 sweep-domain header.
func testSweepHeader(nRx int) Header {
	h := testHeader(nRx)
	h.Domain, h.SweepsPerFrame, h.SamplesPerSweep = DomainSweeps, 2, 8
	return h
}

// bodyOf returns the compressed body of an encoded trace: what follows
// the preamble.
func bodyOf(data []byte) []byte {
	return data[12+binary.LittleEndian.Uint32(data[8:12])+4:]
}

// blockKinds inflates a gzip member with the package's inflater one
// state at a time and returns the decoded body with, per byte, the
// state that decoded it: stStored or stHuffman.
func blockKinds(t *testing.T, member []byte) (body []byte, kinds []int) {
	t.Helper()
	var z inflater
	if err := z.start(bytes.NewReader(member)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for z.err == nil {
		state := z.state
		z.step()
		for z.pending > 0 {
			n, _ := z.Read(buf)
			body = append(body, buf[:n]...)
			for range n {
				kinds = append(kinds, state)
			}
		}
	}
	if z.err != io.EOF {
		t.Fatalf("inflating the member: %v", z.err)
	}
	return body, kinds
}

// planeOwners maps each byte of a decoded record stream to the antenna
// whose samples it holds, or -1 for a record's length, head, sample
// counts and CRC and for the trailer. width is the bytes per sample.
func planeOwners(body []byte, nRx, width int) []int {
	owner := make([]int, len(body))
	for i := range owner {
		owner[i] = -1
	}
	for off := 0; ; {
		plen := binary.LittleEndian.Uint32(body[off:])
		if plen == trailerSentinel {
			return owner
		}
		c := off + 8 // length, index
		c += 1 + bodyStateLen*int(body[c])
		for k := 0; k < nRx; k++ {
			n := width * int(binary.LittleEndian.Uint32(body[c:]))
			c += 4
			for i := c; i < c+n; i++ {
				owner[i] = k
			}
			c += n
		}
		off += 4 + int(plen) + 4
	}
}

// TestMemberBlockLayout pins where the writer puts each byte of a
// trace's body. A sweep trace's body is a gzip member with
// compress/gzip's header. Antenna 0's sample bytes are noise over 200
// symbols, which DEFLATE alone would code in Huffman blocks for ~4%
// fewer bytes: its planes, like every record head, sample count, record
// CRC and the trailer, must sit in stored blocks. Antenna 1 holds
// constant samples, whose planes must sit in Huffman blocks. The
// trailer is the final block. A bin trace's body is what compress/gzip
// writes at BestCompression.
func TestMemberBlockLayout(t *testing.T) {
	const frames, samples = 4, 1024
	rng := rand.New(rand.NewSource(41))
	// noise returns a word whose bytes are uniform over 200 symbols.
	noise := func(n int) uint64 {
		var w uint64
		for range n {
			w = w<<8 | uint64(rng.Intn(200))
		}
		return w
	}
	h16 := testHeaderInt16(2)
	h16.SweepsPerFrame, h16.SamplesPerSweep = 2, samples/2
	h64 := testSweepHeader(2)
	h64.SweepsPerFrame, h64.SamplesPerSweep = 2, samples/2
	// Each frame adds the noise to antenna 0's previous samples (XORs it
	// into their bits), so the noise is what the delta filter leaves.
	prev16 := make([]int16, samples)
	noise16 := func() [][]int16 {
		codes := [][]int16{make([]int16, samples), make([]int16, samples)}
		for i := range codes[0] {
			prev16[i] += int16(noise(2))
			codes[0][i], codes[1][i] = prev16[i], 1234
		}
		return codes
	}
	var prev64 []uint64
	noise64 := func(n int) []dsp.ComplexFrame {
		if len(prev64) != 2*n {
			prev64 = make([]uint64, 2*n)
		}
		f := []dsp.ComplexFrame{make(dsp.ComplexFrame, n), make(dsp.ComplexFrame, n)}
		for i := range f[0] {
			prev64[2*i] ^= noise(8)
			prev64[2*i+1] ^= noise(8)
			f[0][i] = complex(math.Float64frombits(prev64[2*i]), math.Float64frombits(prev64[2*i+1]))
			f[1][i] = complex(1.5, -2)
		}
		return f
	}
	for _, tc := range []struct {
		name  string
		h     Header
		width int // bytes per record sample: an int16 code or a complex pair
		count int // record samples per antenna
		write func(*Writer) error
	}{
		{"int16 sweeps", h16, 2, samples, func(tw *Writer) error {
			return tw.WriteFrameInt16Truths(noise16(), nil)
		}},
		{"float64 sweeps", h64, 16, samples / 2, func(tw *Writer) error {
			return tw.WriteFrameTruths(noise64(samples/2), nil)
		}},
		{"bins", testHeader(2), 16, 64, func(tw *Writer) error {
			return tw.WriteFrameTruths(noise64(64), nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			tw, err := NewWriter(&buf, tc.h)
			if err != nil {
				t.Fatal(err)
			}
			for range frames {
				if err := tc.write(tw); err != nil {
					t.Fatal(err)
				}
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			member := bodyOf(buf.Bytes())
			if tc.h.Domain != DomainSweeps {
				_, body := splitTrace(t, buf.Bytes())
				if want := gzipBytes(t, body, gzip.BestCompression, gzip.Header{OS: 255}); !bytes.Equal(member, want) {
					i := 0
					for i < len(member) && i < len(want) && member[i] == want[i] {
						i++
					}
					t.Fatalf("bin trace body is %d bytes, compress/gzip writes %d; first difference at %d", len(member), len(want), i)
				}
				return
			}
			if !bytes.Equal(member[:10], gzipHeader[:]) {
				t.Fatalf("member header % x, want compress/gzip's % x", member[:10], gzipHeader)
			}
			if end := member[len(member)-8-16-5:][:5]; !bytes.Equal(end, []byte{1, 16, 0, 0xef, 0xff}) {
				t.Fatalf("final block header % x, want a 16-byte final stored block", end)
			}
			body, kinds := blockKinds(t, member)
			owner := planeOwners(body, tc.h.NumRx, tc.width)
			counts := map[int]int{}
			for i, k := range kinds {
				want := stStored
				if owner[i] == 1 {
					want = stHuffman
				}
				if k != want {
					t.Fatalf("body byte %d (antenna %d; -1 is framing) decoded in state %d, want %d", i, owner[i], k, want)
				}
				counts[owner[i]]++
			}
			if want := frames * tc.count * tc.width; counts[0] != want || counts[1] != want {
				t.Fatalf("plane bytes per antenna %v, want %d each", counts, want)
			}
		})
	}
}

// TestWholeStreamLayoutDecodes keeps the earlier body layout readable:
// the same records as one compress/gzip stream — at DefaultCompression
// for int16 codes and BestCompression for float64 sweeps, the levels
// the writer once used — decode to the same frames as the writer's
// member. No checked-in trace holds an int16 body in that layout any
// more.
func TestWholeStreamLayoutDecodes(t *testing.T) {
	const nRx, n = 3, 12
	restream := func(data []byte, level int) []byte {
		pre, body := splitTrace(t, data)
		old := append(pre, gzipBytes(t, body, level, gzip.Header{})...)
		if bytes.Equal(old, data) {
			t.Fatal("the writer's member and one compress/gzip stream are the same bytes")
		}
		return old
	}

	h16 := radioHeaderInt16()
	codes, truths := testFramesInt16(nRx, h16.SweepsPerFrame*h16.SamplesPerSweep, n, 43)
	data16 := encodeInt16(t, h16, codes, truths)
	var frames16 [2][][][]int16
	for i, data := range [][]byte{data16, restream(data16, gzip.DefaultCompression)} {
		tr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if frames16[i], err = readAllInt16(tr); err != nil {
			t.Fatal(err)
		}
	}
	if len(frames16[0]) != n || len(frames16[1]) != n {
		t.Fatalf("int16 traces decoded %d and %d frames, want %d", len(frames16[0]), len(frames16[1]), n)
	}
	for f := range codes {
		for k := range codes[f] {
			if !int16Equal(frames16[0][f][k], codes[f][k]) || !int16Equal(frames16[1][f][k], codes[f][k]) {
				t.Fatalf("int16 frame %d antenna %d diverged", f, k)
			}
		}
	}

	h64 := testSweepHeader(nRx)
	h64.SamplesPerSweep = 300
	cf, ct := testFrames(nRx, h64.SweepsPerFrame*h64.SamplesPerSweep/2, n, 44)
	data64 := encode(t, h64, cf, ct)
	var frames64 [2][][]dsp.ComplexFrame
	for i, data := range [][]byte{data64, restream(data64, gzip.BestCompression)} {
		tr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if frames64[i], err = readAll(tr); err != nil {
			t.Fatal(err)
		}
	}
	if len(frames64[0]) != n || len(frames64[1]) != n {
		t.Fatalf("float64 traces decoded %d and %d frames, want %d", len(frames64[0]), len(frames64[1]), n)
	}
	for f := range cf {
		for k := range cf[f] {
			if !bitsEqual(frames64[0][f][k], cf[f][k]) || !bitsEqual(frames64[1][f][k], cf[f][k]) {
				t.Fatalf("float64 frame %d antenna %d diverged", f, k)
			}
		}
	}
}
