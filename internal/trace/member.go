package trace

import (
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"io"
)

// maxStored is the most bytes one stored block holds.
const maxStored = 1<<16 - 1

// gzipHeader is the member header compress/gzip writes at
// DefaultCompression: no flags, MTIME 0, XFL 0, OS 255 (unknown).
var gzipHeader = [10]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255}

// member assembles the gzip member (RFC 1952) of a sweep trace's body
// block by block (see the package doc). Each sample plane becomes a
// DEFLATE segment when that saves at least an eighth of it, and every
// other byte goes in stored blocks: an int16 low-byte plane is mostly
// ADC noise, which DEFLATE shrinks by a few percent at the price of a
// Huffman decode per byte on replay. The member hands the underlying
// writer one Write per record, and a failed Write is sticky.
type member struct {
	w      io.Writer
	fw     *flate.Writer // makes every DEFLATE segment
	seg    segment       // the current plane's DEFLATE segment
	out    []byte        // member bytes not yet written
	digest uint32        // CRC-32 of the body so far
	size   uint32        // body bytes so far, mod 2^32
	err    error
}

func newMember(w io.Writer) (*member, error) {
	// Not BestCompression: on an int16 high-byte plane, mostly 0x00 and
	// 0xFF, its 4,096-candidate hash chains stall (51 against 4.2 ms a
	// frame on a recorded default-radio trace, for 1.2% fewer bytes).
	// Not BestSpeed: its segments hold more literals, which decode
	// slower.
	fw, err := flate.NewWriter(nil, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	return &member{w: w, fw: fw, out: append([]byte(nil), gzipHeader[:]...)}, nil
}

// record appends rec: its kept DEFLATE segments, and stored blocks for
// the bytes between them.
func (m *member) record(rec []byte, planes []int) error {
	if m.err != nil {
		return m.err
	}
	from := 0
	for i := 0; i < len(planes); i += 2 {
		start, end := planes[i], planes[i+1]
		// Keep the segment only when it saves at least one bit a byte.
		seg := m.deflate(rec[start:end])
		if 8*len(seg) > 7*(end-start) {
			continue
		}
		m.out = appendStored(m.out, rec[from:start], false)
		m.out = append(m.out, seg...)
		from = end
	}
	m.out = appendStored(m.out, rec[from:], false)
	m.digest = crc32.Update(m.digest, crc32.IEEETable, rec)
	m.size += uint32(len(rec))
	return m.flush()
}

// close appends the trailer as the final stored block (an empty one
// when there is no trailer) and the member footer.
func (m *member) close(trailer []byte) error {
	if m.err != nil {
		return m.err
	}
	m.out = appendStored(m.out, trailer, true)
	m.digest = crc32.Update(m.digest, crc32.IEEETable, trailer)
	m.size += uint32(len(trailer))
	m.out = binary.LittleEndian.AppendUint32(m.out, m.digest)
	m.out = binary.LittleEndian.AppendUint32(m.out, m.size)
	return m.flush()
}

// deflate compresses p into a DEFLATE segment with fresh history, so no
// match reaches back past its start, and ends it with a sync flush, so
// it ends byte-aligned and is not final. Writing to a segment cannot
// fail, so neither can the compressor.
func (m *member) deflate(p []byte) []byte {
	m.seg = m.seg[:0]
	m.fw.Reset(&m.seg)
	m.fw.Write(p)
	m.fw.Flush()
	return m.seg
}

// flush writes the pending member bytes.
func (m *member) flush() error {
	_, m.err = m.w.Write(m.out)
	m.out = m.out[:0]
	return m.err
}

// appendStored appends p to dst as stored blocks of at most maxStored
// bytes, the last one marked final when final is set. The stream is
// byte-aligned at every block this package starts, so a block header
// is one byte (BFINAL, BTYPE 00, padding) then LEN and NLEN. An empty p
// appends nothing unless it must end the stream.
func appendStored(dst, p []byte, final bool) []byte {
	if len(p) == 0 && !final {
		return dst
	}
	for {
		n := min(len(p), maxStored)
		var bfinal byte
		if final && n == len(p) {
			bfinal = 1
		}
		dst = append(dst, bfinal, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
		dst = append(dst, p[:n]...)
		if p = p[n:]; len(p) == 0 {
			return dst
		}
	}
}

// segment collects a DEFLATE segment in a reusable buffer.
type segment []byte

func (s *segment) Write(p []byte) (int, error) {
	*s = append(*s, p...)
	return len(p), nil
}
