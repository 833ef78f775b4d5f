package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
)

// inflateAll decodes one gzip member with the package's decoder.
func inflateAll(r io.Reader) ([]byte, error) {
	z := new(inflater)
	if err := z.start(r); err != nil {
		return nil, err
	}
	return io.ReadAll(z)
}

// gunzipAll is the oracle: compress/gzip reading a single member.
func gunzipAll(r io.Reader) ([]byte, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	zr.Multistream(false)
	return io.ReadAll(zr)
}

var errSource = errors.New("source failed")

// failAfter delivers the first n bytes of r, then fails with errSource.
type failAfter struct {
	r io.Reader
	n int
}

func (f *failAfter) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errSource
	}
	p = p[:min(len(p), f.n)]
	n, err := f.r.Read(p)
	f.n -= n
	return n, err
}

// stutter returns 0 bytes and no error before every read of r, which
// io.Reader allows and bufio retries.
type stutter struct {
	r    io.Reader
	skip bool
}

func (s *stutter) Read(p []byte) (int, error) {
	if s.skip = !s.skip; s.skip {
		return 0, nil
	}
	return s.r.Read(p)
}

// sources are the ways a stream can reach a decoder.
var sources = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"bytes", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
	{"data-err", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
	{"timeout", func(b []byte) io.Reader { return iotest.TimeoutReader(bytes.NewReader(b)) }},
	{"fail-mid", func(b []byte) io.Reader { return &failAfter{r: bytes.NewReader(b), n: len(b) / 2} }},
	{"stutter", func(b []byte) io.Reader { return &stutter{r: bytes.NewReader(b)} }},
}

// diffInflate decodes data with both decoders and describes the first
// disagreement: different bytes (on failure too: both deliver all they
// decoded), success against failure, or a source error (timeout,
// errSource, truncation) reaching one caller and not the other.
func diffInflate(data []byte, wrap func([]byte) io.Reader) string {
	want, wantErr := gunzipAll(wrap(data))
	got, gotErr := inflateAll(wrap(data))
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return fmt.Sprintf("decoded %d bytes, compress/gzip %d, first difference at %d", len(got), len(want), i)
	}
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("error %v, compress/gzip %v", gotErr, wantErr)
	}
	for _, e := range []error{iotest.ErrTimeout, errSource, io.ErrUnexpectedEOF, io.EOF} {
		if errors.Is(gotErr, e) != errors.Is(wantErr, e) {
			return fmt.Sprintf("error %v, compress/gzip %v", gotErr, wantErr)
		}
	}
	return ""
}

// gzipBytes compresses p at level with the header fields set.
func gzipBytes(t testing.TB, p []byte, level int, hdr gzip.Header) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	zw.Header = hdr
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gzipFlushed compresses parts at gzip.BestCompression with a Flush
// after each, so every part ends its own run of blocks.
func gzipFlushed(t testing.TB, parts ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range parts {
		if _, err := zw.Write(part); err != nil {
			t.Fatal(err)
		}
		if err := zw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// inflatePayloads spans the block kinds and match shapes: incompressible
// bytes (stored blocks), long and short periodic runs (overlapping
// word and byte copies), low-entropy mixes (dense matches at every
// distance), and int16-style deltas; most exceed the window and the
// input buffer several times over.
func inflatePayloads() map[string][]byte {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 70000)
	rng.Read(random)
	var runs []byte
	for period := 1; period <= 12; period++ {
		for i := 0; i < 3000; i++ {
			runs = append(runs, byte('a'+i%period))
		}
	}
	mixed := make([]byte, 150000)
	for i := range mixed {
		mixed[i] = byte(rng.Intn(6)) * 41
	}
	deltas := make([]byte, 0, 120000)
	for len(deltas) < cap(deltas) {
		deltas = binary.LittleEndian.AppendUint16(deltas, uint16(rng.Intn(9)-4))
	}
	return map[string][]byte{
		"empty":  nil,
		"byte":   {42},
		"text":   []byte(strings.Repeat("through-wall 3D tracking via body radio reflections; ", 2000)),
		"random": random,
		"runs":   runs,
		"mixed":  mixed,
		"deltas": deltas,
	}
}

// memberWithHCRC returns a copy of member (written with FNAME and/or
// FCOMMENT or FEXTRA) carrying an FHCRC field; sum adjusts the stored
// CRC16 so a nonzero sum makes it wrong.
func memberWithHCRC(member []byte, hdr gzip.Header, sum uint16) []byte {
	end := 10
	if hdr.Extra != nil {
		end += 2 + len(hdr.Extra)
	}
	if hdr.Name != "" {
		end += len(hdr.Name) + 1
	}
	if hdr.Comment != "" {
		end += len(hdr.Comment) + 1
	}
	out := append([]byte(nil), member[:end]...)
	out[3] |= 1 << 1
	out = binary.LittleEndian.AppendUint16(out, uint16(crc32.ChecksumIEEE(out))+sum)
	return append(out, member[end:]...)
}

// bitWriter packs a hand-built DEFLATE stream, least significant bit
// first.
type bitWriter struct {
	b   []byte
	acc uint32
	n   uint
}

func (w *bitWriter) bits(v uint32, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.b = append(w.b, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes an n-bit Huffman code, most significant bit first.
func (w *bitWriter) code(c uint32, n uint) {
	w.bits(uint32(bits.Reverse16(uint16(c))>>(16-n)), n)
}

// fixedLit writes a literal/length symbol of the fixed code.
func (w *bitWriter) fixedLit(v int) {
	switch {
	case v < 144:
		w.code(uint32(0x30+v), 8)
	case v < 256:
		w.code(uint32(0x190+v-144), 9)
	case v < 280:
		w.code(uint32(v-256), 7)
	default:
		w.code(uint32(0xc0+v-280), 8)
	}
}

// dynamicHeader starts a final dynamic block describing lit and dist
// (HLIT and HDIST from their lengths) with a flat 4-bit code-length
// code, and returns each literal/length symbol's canonical code.
func (w *bitWriter) dynamicHeader(lit, dist []uint8) []uint32 {
	w.bits(1, 1)
	w.bits(2, 2)
	w.bits(uint32(len(lit)-257), 5)
	w.bits(uint32(len(dist)-1), 5)
	w.bits(15, 4) // 19 code-length code lengths
	for _, sym := range codeOrder {
		if sym < 16 {
			w.bits(4, 3)
		} else {
			w.bits(0, 3)
		}
	}
	for _, l := range append(append([]uint8(nil), lit...), dist...) {
		w.code(uint32(l), 4)
	}
	var count [16]uint32
	for _, l := range lit {
		count[l]++
	}
	count[0] = 0
	var next [16]uint32
	for n, code := 1, uint32(0); n < 16; n++ {
		code = (code + count[n-1]) << 1
		next[n] = code
	}
	codes := make([]uint32, len(lit))
	for s, l := range lit {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

func (w *bitWriter) done() []byte {
	if w.n > 0 {
		return append(w.b, byte(w.acc))
	}
	return w.b
}

// gzipRaw wraps a raw DEFLATE stream in a minimal gzip member whose
// footer matches out.
func gzipRaw(deflate, out []byte) []byte {
	m := []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255}
	m = append(m, deflate...)
	m = binary.LittleEndian.AppendUint32(m, crc32.ChecksumIEEE(out))
	return binary.LittleEndian.AppendUint32(m, uint32(len(out)))
}

// malformedStreams are streams compress/gzip rejects (plus the corner
// cases it accepts), each built to hit one rule.
func malformedStreams() map[string][]byte {
	fixed := func(out string, body func(w *bitWriter)) []byte {
		w := &bitWriter{}
		w.bits(1, 1)
		w.bits(1, 2)
		body(w)
		w.fixedLit(256)
		return gzipRaw(w.done(), []byte(out))
	}
	litLens := func(set map[int]uint8) []uint8 {
		l := make([]uint8, 258)
		for s, n := range set {
			l[s] = n
		}
		return l
	}
	dynamic := func(out string, lit, dist []uint8, body func(w *bitWriter, codes []uint32)) []byte {
		w := &bitWriter{}
		codes := w.dynamicHeader(lit, dist)
		body(w, codes)
		return gzipRaw(w.done(), []byte(out))
	}
	// header starts a dynamic block with the given HLIT, HDIST, HCLEN
	// and code-length code lengths, then the first symbol bits.
	header := func(hlit, hdist, hclen uint32, pre []uint32, first uint32) []byte {
		w := &bitWriter{}
		w.bits(1, 1)
		w.bits(2, 2)
		w.bits(hlit, 5)
		w.bits(hdist, 5)
		w.bits(hclen, 4)
		for _, l := range pre {
			w.bits(l, 3)
		}
		w.bits(first, 8)
		w.bits(0, 32)
		return gzipRaw(w.done(), nil)
	}
	lone := litLens(map[int]uint8{256: 1})
	abc := litLens(map[int]uint8{'a': 1, 256: 2, 257: 2})
	valid := fixed("a", func(w *bitWriter) { w.fixedLit('a') })
	m := map[string][]byte{
		"fixed-ok":       valid,
		"symbol-286":     fixed("a", func(w *bitWriter) { w.fixedLit('a'); w.fixedLit(286) }),
		"symbol-287":     fixed("a", func(w *bitWriter) { w.fixedLit('a'); w.fixedLit(287) }),
		"distance-30":    fixed("a", func(w *bitWriter) { w.fixedLit('a'); w.fixedLit(257); w.code(30, 5) }),
		"distance-31":    fixed("a", func(w *bitWriter) { w.fixedLit('a'); w.fixedLit(257); w.code(31, 5) }),
		"distance-ok":    fixed("aaaa", func(w *bitWriter) { w.fixedLit('a'); w.fixedLit(257); w.code(0, 5) }),
		"beyond-history": fixed("a", func(w *bitWriter) { w.fixedLit('a'); w.fixedLit(257); w.code(1, 5) }),
		"match-first":    fixed("a", func(w *bitWriter) { w.fixedLit(257); w.code(0, 5) }),
		"hlit-287":       header(30, 0, 0, nil, 0),
		"hdist-31":       header(0, 30, 0, nil, 0),
		// Code-length code {0: "0", 16: "1"}, then a "1": the first
		// length is a repeat of nothing.
		"repeat-first": header(0, 0, 0, []uint32{1, 0, 0, 1}, 1),
		// A lone 2-bit code-length code is incomplete.
		"incomplete-precode": header(0, 0, 0, []uint32{0, 0, 0, 2}, 0),
		"incomplete-litlen": dynamic("a", litLens(map[int]uint8{'a': 2, 256: 2}), []uint8{1},
			func(w *bitWriter, c []uint32) { w.code(c['a'], 2) }),
		"oversubscribed": dynamic("a", litLens(map[int]uint8{'a': 1, 'b': 1, 256: 1}), []uint8{1},
			func(w *bitWriter, c []uint32) { w.code(c['a'], 1) }),
		// One 1-bit code is the incomplete code zlib and compress/flate
		// accept; its other bit pattern is corrupt input.
		"single-code":      dynamic("", lone, []uint8{0}, func(w *bitWriter, c []uint32) { w.code(c[256], 1) }),
		"single-code-hole": dynamic("", lone, []uint8{0}, func(w *bitWriter, c []uint32) { w.bits(1, 1) }),
		"single-distance": dynamic("aaaa", abc, []uint8{1}, func(w *bitWriter, c []uint32) {
			w.code(c['a'], 1)
			w.code(c[257], 2)
			w.bits(0, 1)
			w.code(c[256], 2)
		}),
		"empty-distance-tree": dynamic("a", abc, []uint8{0},
			func(w *bitWriter, c []uint32) { w.code(c['a'], 1); w.code(c[257], 2) }),
		"block-type-3":  gzipRaw([]byte{0x07, 0, 0, 0}, nil),
		"stored-nlen":   gzipRaw([]byte{0x01, 1, 0, 0xfe, 0xfe, 'a'}, []byte("a")),
		"stored-ok":     gzipRaw([]byte{0x01, 1, 0, 0xfe, 0xff, 'a'}, []byte("a")),
		"stored-empty":  gzipRaw([]byte{0x01, 0, 0, 0xff, 0xff}, nil),
		"bad-magic":     append([]byte{0x1f, 0x8c}, valid[2:]...),
		"bad-method":    append([]byte{0x1f, 0x8b, 7}, valid[3:]...),
		"reserved-flag": append([]byte{0x1f, 0x8b, 8, 0xe0}, valid[4:]...),
	}
	for name, flip := range map[string]int{"footer-crc": 8, "footer-isize": 4} {
		bad := append([]byte(nil), valid...)
		bad[len(bad)-flip] ^= 1
		m[name] = bad
	}
	for _, n := range []int{511, 512} {
		hdr := gzip.Header{Name: strings.Repeat("n", n)}
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Header = hdr
		zw.Close()
		m[fmt.Sprintf("name-%d", n)] = buf.Bytes()
	}
	return m
}

// TestInflateMatchesGzip checks the decoder against compress/gzip, the
// oracle: stored, fixed and dynamic blocks at every compression level,
// empty members, every optional header field, the corpus trace bodies
// and hand-built malformed streams, each through sources that trickle,
// halve, attach EOF to data, time out, fail mid-stream or return empty
// reads. It also
// replays truncations and random mutations of valid streams.
func TestInflateMatchesGzip(t *testing.T) {
	streams := map[string][]byte{}
	p := inflatePayloads()
	for name, payload := range p {
		for _, level := range []int{gzip.NoCompression, gzip.BestSpeed, gzip.DefaultCompression, gzip.BestCompression, gzip.HuffmanOnly} {
			streams[fmt.Sprintf("%s-level%d", name, level)] = gzipBytes(t, payload, level, gzip.Header{})
		}
	}
	// Compressible runs and noise of random lengths, flushed one by one:
	// Huffman and stored blocks alternate at every window position.
	pick := rand.New(rand.NewSource(3))
	var parts [][]byte
	for i := range 40 {
		src := p["mixed"]
		if i%2 == 1 {
			src = p["random"]
		}
		n := 1 + pick.Intn(6000)
		off := pick.Intn(len(src) - n)
		parts = append(parts, src[off:off+n])
	}
	streams["interleaved-blocks"] = gzipFlushed(t, parts...)
	text := []byte("walk, fall, point")
	for name, hdr := range map[string]gzip.Header{
		"fname":    {Name: "capture.wtrace"},
		"fcomment": {Comment: "through-wall walk"},
		"fextra":   {Extra: []byte("WT\x04\x00abcd")},
		"latin1":   {Name: "café", Comment: "ÿ"},
		"all":      {Name: "a", Comment: "b", Extra: []byte{1, 2, 3}},
	} {
		m := gzipBytes(t, text, gzip.BestCompression, hdr)
		streams[name] = m
		streams[name+"-fhcrc"] = memberWithHCRC(m, hdr, 0)
		streams[name+"-fhcrc-bad"] = memberWithHCRC(m, hdr, 1)
	}
	for name, m := range malformedStreams() {
		streams["malformed-"+name] = m
	}
	corpus, err := filepath.Glob(filepath.Join("..", "scenario", "testdata", "corpus", "*"+Ext))
	if err != nil || len(corpus) != 5 {
		t.Fatalf("corpus traces: %v (%d found, want 5)", err, len(corpus))
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		hdrLen := binary.LittleEndian.Uint32(data[8:12])
		streams[filepath.Base(path)] = data[12+hdrLen+4:]
	}

	for name, data := range streams {
		for _, src := range sources {
			if d := diffInflate(data, src.wrap); d != "" {
				t.Errorf("%s via %s: %s", name, src.name, d)
			}
		}
	}
	// The malformed streams must really be rejected (and the corner
	// cases accepted), or they test nothing.
	accepted := map[string]bool{"fixed-ok": true, "distance-ok": true, "single-code": true,
		"single-distance": true, "stored-ok": true, "stored-empty": true, "reserved-flag": true, "name-511": true}
	for name, data := range malformedStreams() {
		_, err := gunzipAll(bytes.NewReader(data))
		if (err == nil) != accepted[name] {
			t.Errorf("malformed stream %s: compress/gzip error %v", name, err)
		}
	}

	// Huffman blocks ending at every write position near the top of the
	// window, where the slow path decodes the end-of-block code with
	// input buffered, each followed by a stored block of noise and more
	// data: the byte-aligned stored block must start from a clean bit
	// buffer.
	for n := 32760; n <= 33100; n++ {
		data := gzipFlushed(t, p["mixed"][:n], p["random"][:300], p["deltas"][:2000])
		for _, src := range sources {
			if src.name != "bytes" && src.name != "half" {
				continue
			}
			if d := diffInflate(data, src.wrap); d != "" {
				t.Errorf("%d-byte Huffman block, stored block, tail via %s: %s", n, src.name, d)
			}
		}
	}

	// Truncations at every length and mutations of short valid streams.
	sweep := map[string][]byte{
		"stored":  gzipBytes(t, p["random"][:3000], gzip.NoCompression, gzip.Header{}),
		"fast":    gzipBytes(t, p["runs"][:3000], gzip.BestSpeed, gzip.Header{}),
		"best":    gzipBytes(t, p["mixed"][:3000], gzip.BestCompression, gzip.Header{}),
		"huffman": gzipBytes(t, p["text"][:3000], gzip.HuffmanOnly, gzip.Header{}),
		"fhcrc":   streams["all-fhcrc"],
	}
	rng := rand.New(rand.NewSource(2))
	mutants := 3000
	if testing.Short() {
		mutants = 300
	}
	for name, data := range sweep {
		for n := range len(data) {
			for _, src := range sources[:2] {
				if src.name == "one-byte" && n%16 != 0 {
					continue
				}
				if d := diffInflate(data[:n], src.wrap); d != "" {
					t.Errorf("%s truncated to %d via %s: %s", name, n, src.name, d)
				}
			}
		}
		for i := range mutants {
			if d := diffInflate(mutate(rng, data), sources[0].wrap); d != "" {
				t.Errorf("%s mutant %d: %s", name, i, d)
			}
		}
	}
}

// mutate returns data with a few random bit flips, byte overwrites or a
// truncation.
func mutate(rng *rand.Rand, data []byte) []byte {
	m := append([]byte(nil), data...)
	for k := 1 + rng.Intn(3); k > 0; k-- {
		i := rng.Intn(len(m))
		switch rng.Intn(3) {
		case 0:
			m[i] ^= 1 << rng.Intn(8)
		case 1:
			m[i] = byte(rng.Intn(256))
		default:
			m = m[:i]
		}
		if len(m) == 0 {
			break
		}
	}
	return m
}

// FuzzInflate: for arbitrary bytes, the decoder returns what
// compress/gzip returns and fails exactly when it fails, whether the
// source hands over everything at once or a byte at a time.
func FuzzInflate(f *testing.F) {
	for _, p := range [][]byte{nil, []byte("a"), []byte(strings.Repeat("witrack ", 300))} {
		for _, level := range []int{gzip.NoCompression, gzip.BestSpeed, gzip.BestCompression, gzip.HuffmanOnly} {
			m := gzipBytes(f, p, level, gzip.Header{Name: "n"})
			f.Add(m)
			f.Add(m[:len(m)/2])
			flipped := append([]byte(nil), m...)
			flipped[len(m)/3] ^= 0x10
			f.Add(flipped)
		}
	}
	for _, m := range malformedStreams() {
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, src := range sources[:2] {
			if d := diffInflate(data, src.wrap); d != "" {
				t.Fatalf("via %s: %s", src.name, d)
			}
		}
	})
}
