package trace

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/bits"
)

// inflater decodes one gzip member (RFC 1952) holding a DEFLATE stream
// (RFC 1951): the .wtrace body. It accepts and rejects exactly the
// streams compress/gzip accepts with Multistream(false), reads its
// source only when it needs a byte it does not have (one Read call per
// refill, as bufio does), and allocates nothing after construction: the
// history window, the input buffer and the Huffman tables all live in
// the struct.
//
// Decoding runs on two paths. The fast path refills a 64-bit bit buffer
// eight bytes at a time and copies short matches a word at a time; it
// runs while at least eight input bytes are buffered and the write
// position has room for a maximal match plus the word overrun. The slow
// path decodes one symbol at a time, writes with wrap-around and pulls
// input a byte at a time in the order compress/flate does. It covers
// block headers, the tail of each input chunk and the end of the window,
// so a truncated or failing source errors at the same symbol as the
// standard library.
type inflater struct {
	r    io.Reader
	rerr error // the source's error, reported once its bytes are used up
	err  error // sticky: io.EOF after a verified footer, or the failure

	in     [inBufLen]byte
	ip, ie int // in[ip:ie] is buffered, unread input

	bitbuf uint64 // input bits, least significant first
	nb     uint   // valid bits in bitbuf; the bits above them are zero

	hist    [histLen]byte // circular history window and output buffer
	w       int           // write position in hist
	rpos    int           // first decoded byte not yet handed to Read
	pending int           // decoded bytes not yet handed to Read
	wrapped bool          // w has wrapped, so the whole window is history

	state      int
	final      bool // the current block is the stream's last
	storedLeft int  // bytes left in the current stored block

	lit             [litTableLen]uint32
	dist            [distTableLen]uint32
	pre             [preTableLen]uint32
	litMin, distMin uint // bits compress/flate demands before a lookup
	lens            [maxNumLit + maxNumDist]uint8
	digest, size    uint32 // CRC-32 and length of the delivered output
	tmp             [10]byte
}

const (
	windowSize = 1 << 15 // DEFLATE's largest match distance
	maxMatch   = 258
	// histLen leaves room beyond the window for a maximal match plus an
	// 8-byte overrun: bytes the word copy writes ahead of the output are
	// then never history (they lie more than windowSize back) and never
	// undelivered output (at most maxPending+maxMatch-1 bytes are).
	histLen    = windowSize + maxMatch + 8
	maxPending = windowSize
	// fastEnd is the last write position the fast path starts a symbol
	// at: a match plus its overrun then stays inside hist.
	fastEnd = histLen - maxMatch - 8

	// inBufLen is bufio's default size, so the source sees the same
	// sequence of Read calls it would under compress/gzip.
	inBufLen = 4096

	maxCodeLen = 15
	maxNumLit  = 286 // HLIT bound (RFC 1951 §3.2.7)
	maxNumDist = 30  // HDIST bound; distance codes 30 and 31 never occur
	numPre     = 19  // code-length code symbols

	// Decode tables: a root table indexed by the next litBits (distBits,
	// preBits) input bits, then subtables for longer codes. The lengths
	// are the worst cases zlib's enough tool computes for a root of that
	// width and 15-bit codes (enough 288 10 15 = 1334, enough 32 8 15 =
	// 402), so no code the length checks accept overflows them.
	litBits      = 10
	distBits     = 8
	preBits      = 7
	litTableLen  = 1334
	distTableLen = 402
	preTableLen  = 1 << preBits
)

// Table entry layout: bits 0-3 hold the code length (0 for a bit
// pattern no code starts, which decodes as corrupt input), bits 4-7 the
// extra-bit count (for a link, the subtable's index width), bits 8-11
// the kind flags, bits 16-31 the value: literal byte, base length, base
// distance, code-length symbol, or subtable offset. An entry with no
// kind flag is a length or distance base.
const (
	entLit  = 1 << 8
	entEOB  = 1 << 9
	entBad  = 1 << 10 // no code, or a symbol no valid stream uses
	entLink = 1 << 11
)

const (
	stHeader = iota // decoding a block header
	stStored
	stHuffman
	stFooter
)

var (
	errFlateCorrupt = errors.New("flate: corrupt input")
	errGzipHeader   = errors.New("gzip: invalid header")
	errGzipChecksum = errors.New("gzip: invalid checksum")
)

// litSyms, distSyms and preSyms map a symbol to its table entry minus
// the code length.
var (
	litSyms  = makeLitSyms()
	distSyms = makeDistSyms()
	preSyms  = makePreSyms()
)

func makeLitSyms() (s [288]uint32) {
	for i := range 256 {
		s[i] = entLit | uint32(i)<<16
	}
	s[256] = entEOB
	base := 3
	for i := 257; i < 285; i++ {
		extra := 0
		if i >= 265 {
			extra = (i - 261) / 4
		}
		s[i] = uint32(base)<<16 | uint32(extra)<<4
		base += 1 << extra
	}
	s[285] = 258 << 16
	s[286], s[287] = entBad, entBad
	return s
}

func makeDistSyms() (s [32]uint32) {
	base := 1
	for i := range maxNumDist {
		extra := 0
		if i >= 4 {
			extra = i/2 - 1
		}
		s[i] = uint32(base)<<16 | uint32(extra)<<4
		base += 1 << extra
	}
	s[30], s[31] = entBad, entBad
	return s
}

func makePreSyms() (s [numPre]uint32) {
	for i := range s {
		s[i] = uint32(i) << 16
	}
	return s
}

// start points a zero inflater at r and parses the member's gzip
// header, returning the error compress/gzip's NewReader would.
func (z *inflater) start(r io.Reader) error {
	z.r = r
	z.err = z.readHeader()
	return z.err
}

// Read hands out decoded bytes. Every byte decoded before a failure is
// delivered before the failure itself; io.EOF comes only after the
// footer's CRC-32 and length match the delivered output.
func (z *inflater) Read(p []byte) (int, error) {
	for z.pending == 0 {
		if z.err != nil {
			return 0, z.err
		}
		z.step()
	}
	n := min(z.pending, histLen-z.rpos)
	n = copy(p, z.hist[z.rpos:z.rpos+n])
	z.digest = crc32.Update(z.digest, crc32.IEEETable, p[:n])
	z.size += uint32(n)
	z.pending -= n
	if z.rpos += n; z.rpos == histLen {
		z.rpos = 0
	}
	return n, nil
}

// step advances the decoder by one state; it is called only with no
// output pending, so the footer is checked against all of it.
func (z *inflater) step() {
	var err error
	switch z.state {
	case stHeader:
		err = z.blockHeader()
	case stStored:
		err = z.stored()
	case stHuffman:
		err = z.huffman()
	case stFooter:
		err = z.footer()
	}
	if err != nil {
		z.err = err
	}
}

// fill refills the empty input buffer with one Read call, retrying a
// source that returns nothing and no error the way bufio does.
func (z *inflater) fill() error {
	if z.rerr != nil {
		return z.rerr
	}
	for range 100 {
		n, err := z.r.Read(z.in[:])
		if n > 0 {
			z.ip, z.ie, z.rerr = 0, n, err
			return nil
		}
		if err != nil {
			z.rerr = err
			return err
		}
	}
	z.rerr = io.ErrNoProgress
	return z.rerr
}

// need buffers at least n bits, pulling input a byte at a time.
func (z *inflater) need(n uint) error {
	for z.nb < n {
		if z.ip == z.ie {
			if err := z.fill(); err != nil {
				return noEOF(err)
			}
		}
		z.bitbuf |= uint64(z.in[z.ip]) << z.nb
		z.ip++
		z.nb += 8
	}
	return nil
}

// take consumes n buffered bits.
func (z *inflater) take(n uint) uint32 {
	v := uint32(z.bitbuf & (1<<n - 1))
	z.bitbuf >>= n
	z.nb -= n
	return v
}

// nextByte returns the next input byte of a byte-aligned stream: whole
// bytes still in the bit buffer first, then buffered input.
func (z *inflater) nextByte() (byte, error) {
	if z.nb >= 8 {
		return byte(z.take(8)), nil
	}
	if z.ip == z.ie {
		if err := z.fill(); err != nil {
			return 0, err
		}
	}
	c := z.in[z.ip]
	z.ip++
	return c, nil
}

// readFull reads len(p) bytes of a byte-aligned stream, with
// io.ReadFull's errors.
func (z *inflater) readFull(p []byte) error {
	for i := range p {
		c, err := z.nextByte()
		if err != nil {
			if i > 0 {
				return noEOF(err)
			}
			return err
		}
		p[i] = c
	}
	return nil
}

func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readHeader parses the gzip member header. Like compress/gzip it
// ignores MTIME, XFL, OS and the reserved flag bits, skips FEXTRA,
// FNAME and FCOMMENT (names and comments longer than 511 bytes are
// invalid), and checks FHCRC.
func (z *inflater) readHeader() error {
	const (
		flagHdrCrc  = 1 << 1
		flagExtra   = 1 << 2
		flagName    = 1 << 3
		flagComment = 1 << 4
	)
	h := z.tmp[:10]
	if err := z.readFull(h); err != nil {
		return err
	}
	if h[0] != 0x1f || h[1] != 0x8b || h[2] != 8 {
		return errGzipHeader
	}
	flg := h[3]
	digest := crc32.ChecksumIEEE(h)
	if flg&flagExtra != 0 {
		x := z.tmp[:2]
		if err := z.readFull(x); err != nil {
			return noEOF(err)
		}
		digest = crc32.Update(digest, crc32.IEEETable, x)
		for range binary.LittleEndian.Uint16(x) {
			c, err := z.nextByte()
			if err != nil {
				return noEOF(err)
			}
			z.tmp[0] = c
			digest = crc32.Update(digest, crc32.IEEETable, z.tmp[:1])
		}
	}
	for _, f := range [...]byte{flagName, flagComment} {
		if flg&f == 0 {
			continue
		}
		for i := 0; ; i++ {
			if i >= 512 {
				return errGzipHeader
			}
			c, err := z.nextByte()
			if err != nil {
				return noEOF(err)
			}
			z.tmp[0] = c
			digest = crc32.Update(digest, crc32.IEEETable, z.tmp[:1])
			if c == 0 {
				break
			}
		}
	}
	if flg&flagHdrCrc != 0 {
		x := z.tmp[:2]
		if err := z.readFull(x); err != nil {
			return noEOF(err)
		}
		if binary.LittleEndian.Uint16(x) != uint16(digest) {
			return errGzipHeader
		}
	}
	return nil
}

// footer checks the member's CRC-32 and ISIZE against the delivered
// output.
func (z *inflater) footer() error {
	f := z.tmp[:8]
	if err := z.readFull(f); err != nil {
		return noEOF(err)
	}
	if binary.LittleEndian.Uint32(f) != z.digest || binary.LittleEndian.Uint32(f[4:]) != z.size {
		return errGzipChecksum
	}
	return io.EOF
}

// endBlock moves past a finished block; after the final one the stream
// is byte-aligned and the footer follows.
func (z *inflater) endBlock() {
	z.state = stHeader
	if z.final {
		z.take(z.nb & 7)
		z.state = stFooter
	}
}

// blockHeader decodes a block's 3-bit header and, for a Huffman block,
// its code tables.
func (z *inflater) blockHeader() error {
	if err := z.need(3); err != nil {
		return err
	}
	z.final = z.take(1) == 1
	switch z.take(2) {
	case 0:
		z.take(z.nb & 7)
		x := z.tmp[:4]
		if err := z.readFull(x); err != nil {
			return noEOF(err)
		}
		n := binary.LittleEndian.Uint16(x)
		if binary.LittleEndian.Uint16(x[2:]) != ^n {
			return errFlateCorrupt
		}
		z.storedLeft = int(n)
		z.state = stStored
		return nil
	case 1:
		z.fixedTables()
	case 2:
		if err := z.dynamicTables(); err != nil {
			return err
		}
	default:
		return errFlateCorrupt
	}
	z.state = stHuffman
	return nil
}

// fixedTables installs the fixed code of RFC 1951 §3.2.6.
func (z *inflater) fixedTables() {
	l := z.lens[:288]
	for i := range l {
		switch {
		case i < 144:
			l[i] = 8
		case i < 256:
			l[i] = 9
		case i < 280:
			l[i] = 7
		default:
			l[i] = 8
		}
	}
	z.litMin, _ = buildTable(z.lit[:], litBits, l, litSyms[:])
	l = z.lens[:32]
	for i := range l {
		l[i] = 5
	}
	z.distMin, _ = buildTable(z.dist[:], distBits, l, distSyms[:])
}

// codeOrder is the order code-length code lengths are stored in.
var codeOrder = [numPre]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// dynamicTables reads a dynamic block's code description (RFC 1951
// §3.2.7) and builds its tables, checking and pulling input in
// compress/flate's order.
func (z *inflater) dynamicTables() error {
	if err := z.need(14); err != nil {
		return err
	}
	nlit := int(z.take(5)) + 257
	ndist := int(z.take(5)) + 1
	nclen := int(z.take(4)) + 4
	if nlit > maxNumLit || ndist > maxNumDist {
		return errFlateCorrupt
	}
	var pl [numPre]uint8
	for _, sym := range codeOrder[:nclen] {
		if err := z.need(3); err != nil {
			return err
		}
		pl[sym] = uint8(z.take(3))
	}
	preMin, ok := buildTable(z.pre[:], preBits, pl[:], preSyms[:])
	if !ok {
		return errFlateCorrupt
	}

	lens := z.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		e, err := z.slowSym(z.pre[:], preBits, preMin)
		if err != nil {
			return err
		}
		if e&entBad != 0 {
			return errFlateCorrupt
		}
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var rep int
		var nb uint
		var v uint8
		switch sym {
		case 16:
			if i == 0 {
				return errFlateCorrupt
			}
			rep, nb, v = 3, 2, lens[i-1]
		case 17:
			rep, nb = 3, 3
		default:
			rep, nb = 11, 7
		}
		if err := z.need(nb); err != nil {
			return err
		}
		rep += int(z.take(nb))
		if i+rep > len(lens) {
			return errFlateCorrupt
		}
		for range rep {
			lens[i] = v
			i++
		}
	}

	if z.litMin, ok = buildTable(z.lit[:], litBits, lens[:nlit], litSyms[:]); !ok {
		return errFlateCorrupt
	}
	if z.distMin, ok = buildTable(z.dist[:], distBits, lens[nlit:], distSyms[:]); !ok {
		return errFlateCorrupt
	}
	// compress/flate reads at least the end-of-block code's length
	// before each literal/length lookup.
	z.litMin = max(z.litMin, uint(lens[256]))
	return nil
}

// buildTable fills t with the decode table for a code whose symbol i
// has length lens[i] (0 = unused), entries from syms. It returns the
// shortest code length, and false when the lengths do not form a code
// compress/flate accepts: a complete one, an empty one, or a single
// code of length 1.
func buildTable(t []uint32, root uint, lens []uint8, syms []uint32) (uint, bool) {
	var count [maxCodeLen + 1]int
	for _, n := range lens {
		count[n]++
	}
	minLen, maxLen := 0, 0
	for n := 1; n <= maxCodeLen; n++ {
		if count[n] != 0 {
			if minLen == 0 {
				minLen = n
			}
			maxLen = n
		}
	}
	tab := t[:1<<root]
	if maxLen == 0 {
		for i := range tab {
			tab[i] = entBad
		}
		return 0, true
	}
	var next [maxCodeLen + 1]int
	code := 0
	for n := minLen; n <= maxLen; n++ {
		code <<= 1
		next[n] = code
		code += count[n]
	}
	switch {
	case code == 1<<maxLen:
	case code == 1 && maxLen == 1:
		// The lone 1-bit code leaves the other bit pattern undecodable.
		for i := range tab {
			tab[i] = entBad
		}
	default:
		return 0, false
	}

	if uint(maxLen) > root {
		// Size each subtable to the deepest code under its root prefix,
		// then lay the subtables out after the root table.
		clear(tab)
		c := next
		for _, n := range lens {
			if uint(n) <= root {
				continue
			}
			j := reverse(c[n], n) & (1<<root - 1)
			c[n]++
			tab[j] = max(tab[j], uint32(n)-uint32(root))
		}
		off := uint32(1) << root
		for j, b := range tab {
			if b != 0 {
				tab[j] = off<<16 | b<<4 | entLink
				off += 1 << b
			}
		}
	}

	for sym, n := range lens {
		if n == 0 {
			continue
		}
		r := reverse(next[n], n)
		next[n]++
		e := syms[sym] | uint32(n)
		if uint(n) <= root {
			for i := r; i < len(tab); i += 1 << n {
				tab[i] = e
			}
			continue
		}
		l := tab[r&(1<<root-1)]
		sub := t[l>>16 : l>>16+1<<(l>>4&15)]
		for i := r >> root; i < len(sub); i += 1 << (uint(n) - root) {
			sub[i] = e
		}
	}
	return uint(minLen), true
}

// reverse returns the low n bits of code in reverse order: DEFLATE
// packs Huffman codes most significant bit first into an LSB-first
// stream.
func reverse(code int, n uint8) int {
	return int(bits.Reverse16(uint16(code)) >> (16 - n))
}

// slowSym decodes one symbol from table t, pulling input a byte at a
// time: minBits first, then whatever the code turns out to need.
func (z *inflater) slowSym(t []uint32, root, minBits uint) (uint32, error) {
	n := minBits
	for {
		if err := z.need(n); err != nil {
			return 0, err
		}
		e := t[z.bitbuf&(1<<root-1)]
		if e&entLink != 0 {
			e = t[e>>16+uint32(z.bitbuf>>root)&(1<<(e>>4&15)-1)]
		}
		if n = uint(e & 15); n <= z.nb {
			z.take(n)
			return e, nil
		}
	}
}

// put appends one decoded byte to the window.
func (z *inflater) put(c byte) {
	z.hist[z.w] = c
	z.pending++
	if z.w++; z.w == histLen {
		z.w, z.wrapped = 0, true
	}
}

// stored copies a stored block's bytes into the window.
func (z *inflater) stored() error {
	for z.storedLeft > 0 && z.pending < maxPending {
		if z.nb >= 8 {
			z.put(byte(z.take(8)))
			z.storedLeft--
			continue
		}
		if z.ip == z.ie {
			if err := z.fill(); err != nil {
				return noEOF(err)
			}
		}
		n := min(z.storedLeft, z.ie-z.ip, histLen-z.w, maxPending-z.pending)
		copy(z.hist[z.w:z.w+n], z.in[z.ip:])
		z.ip += n
		z.storedLeft -= n
		z.pending += n
		if z.w += n; z.w == histLen {
			z.w, z.wrapped = 0, true
		}
	}
	if z.storedLeft == 0 {
		z.endBlock()
	}
	return nil
}

// huffman decodes the current Huffman block until its end-of-block
// code, an error, or a window's worth of pending output.
func (z *inflater) huffman() error {
	for z.pending < maxPending {
		var eob bool
		var err error
		if z.ie-z.ip >= 8 && z.w < fastEnd {
			eob, err = z.fast()
		} else {
			eob, err = z.slow()
		}
		if err != nil {
			return err
		}
		if eob {
			z.endBlock()
			return nil
		}
	}
	return nil
}

// slow decodes one literal, match or end-of-block code.
func (z *inflater) slow() (eob bool, err error) {
	e, err := z.slowSym(z.lit[:], litBits, z.litMin)
	switch {
	case err != nil:
		return false, err
	case e&entLit != 0:
		z.put(byte(e >> 16))
		return false, nil
	case e&entEOB != 0:
		return true, nil
	case e&entBad != 0:
		return false, errFlateCorrupt
	}
	length := int(e >> 16)
	if x := uint(e >> 4 & 15); x > 0 {
		if err := z.need(x); err != nil {
			return false, err
		}
		length += int(z.take(x))
	}
	d, err := z.slowSym(z.dist[:], distBits, z.distMin)
	if err != nil {
		return false, err
	}
	if d&entBad != 0 {
		return false, errFlateCorrupt
	}
	dist := int(d >> 16)
	if x := uint(d >> 4 & 15); x > 0 {
		if err := z.need(x); err != nil {
			return false, err
		}
		dist += int(z.take(x))
	}
	if dist > z.w && !z.wrapped {
		return false, errFlateCorrupt
	}
	src := z.w - dist
	if src < 0 {
		src += histLen
	}
	for range length {
		z.put(z.hist[src])
		if src++; src == histLen {
			src = 0
		}
	}
	return false, nil
}

// fast decodes symbols while at least 8 input bytes are buffered and
// the write position is below fastEnd (and below the pending-output
// bound). Each iteration refills the bit buffer to at least 56 bits,
// enough for a literal/length code, its extra bits, a distance code and
// its extra bits (at most 15+5+15+13).
func (z *inflater) fast() (eob bool, err error) {
	bitbuf, nb, ip, w := z.bitbuf, z.nb, z.ip, z.w
	in := z.in[:z.ie]
	hist := z.hist[:]
	lt, dt := &z.lit, &z.dist
	wrapped := z.wrapped
	stop := min(fastEnd, w+maxPending-z.pending)
	w0 := w
	for w < stop && ip <= len(in)-8 {
		bitbuf |= binary.LittleEndian.Uint64(in[ip:]) << (nb & 63)
		ip += int(63-nb) >> 3
		nb |= 56

		e := lt[bitbuf&(1<<litBits-1)]
		if e&entLit != 0 {
			// Three root-table literals (at most 3*litBits bits) fit one
			// refill: decode the next two without going back to the
			// input, which keeps the refill off the literal chain.
			bitbuf >>= e & 15
			nb -= uint(e & 15)
			hist[w] = byte(e >> 16)
			w++
			if e = lt[bitbuf&(1<<litBits-1)]; e&entLit == 0 {
				continue
			}
			bitbuf >>= e & 15
			nb -= uint(e & 15)
			hist[w] = byte(e >> 16)
			w++
			if e = lt[bitbuf&(1<<litBits-1)]; e&entLit == 0 {
				continue
			}
			bitbuf >>= e & 15
			nb -= uint(e & 15)
			hist[w] = byte(e >> 16)
			w++
			continue
		}
		if e&entLink != 0 {
			e = lt[e>>16+uint32(bitbuf>>litBits)&(1<<(e>>4&15)-1)]
		}
		n := uint(e & 15)
		bitbuf >>= n
		nb -= n
		if e&entLit != 0 {
			hist[w] = byte(e >> 16)
			w++
			continue
		}
		if e&(entEOB|entBad) != 0 {
			if e&entBad != 0 {
				err = errFlateCorrupt
			}
			eob = err == nil
			break
		}
		x := uint(e >> 4 & 15)
		length := int(e>>16) + int(bitbuf&(1<<x-1))
		bitbuf >>= x
		nb -= x

		d := dt[bitbuf&(1<<distBits-1)]
		if d&entLink != 0 {
			d = dt[d>>16+uint32(bitbuf>>distBits)&(1<<(d>>4&15)-1)]
		}
		n = uint(d & 15)
		bitbuf >>= n
		nb -= n
		if d&entBad != 0 {
			err = errFlateCorrupt
			break
		}
		x = uint(d >> 4 & 15)
		dist := int(d>>16) + int(bitbuf&(1<<x-1))
		bitbuf >>= x
		nb -= x
		if dist > w && !wrapped {
			err = errFlateCorrupt
			break
		}

		src := w - dist
		if src < 0 {
			// The source starts near the top of the buffer, more than
			// histLen-windowSize > maxMatch bytes past the output, so
			// that part cannot overlap it; the rest continues from 0.
			src += histLen
			k := copy(hist[w:w+length], hist[src:])
			w += k
			length -= k
			src = 0
		}
		if dist >= 8 {
			// Word copy, possibly overlapping: each load reads bytes at
			// least 8 behind the store, all already written.
			for i := 0; i < length; i += 8 {
				binary.LittleEndian.PutUint64(hist[w+i:], binary.LittleEndian.Uint64(hist[src+i:]))
			}
		} else {
			for i := range length {
				hist[w+i] = hist[src+i]
			}
		}
		w += length
	}
	z.bitbuf, z.nb, z.ip, z.w = bitbuf&(1<<nb-1), nb, ip, w
	z.pending += w - w0
	return eob, err
}
