package trace

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"witrack/internal/dsp"
	"witrack/internal/fmcw"
	"witrack/internal/motion"
)

// radioHeaderInt16 is the int16 header of the default radio: three
// receive antennas, five sweeps of fmcw.Default's length per frame.
func radioHeaderInt16() Header {
	h := testHeaderInt16(3)
	h.SweepsPerFrame = 5
	h.SamplesPerSweep = fmcw.Default().SamplesPerSweep()
	return h
}

// TestWarmReadsAllocateNothing pins the replay source's steady state:
// once the reader and the destination buffers are warm, decoding a
// record allocates nothing, on the int16 and the float64 encoding.
func TestWarmReadsAllocateNothing(t *testing.T) {
	const frames, runs = 40, 20
	h16 := radioHeaderInt16()
	codes, truths := testFramesInt16(h16.NumRx, h16.SweepsPerFrame*h16.SamplesPerSweep, frames, 5)
	tr16, err := NewReader(bytes.NewReader(encodeInt16(t, h16, codes, truths)))
	if err != nil {
		t.Fatal(err)
	}
	var dst16 [][]int16
	var tdst []motion.BodyState
	read16 := func() {
		if dst16, tdst, err = tr16.ReadFrameInt16Into(dst16, tdst[:0]); err != nil {
			t.Fatal(err)
		}
	}
	read16()
	if a := testing.AllocsPerRun(runs, read16); a != 0 {
		t.Errorf("warm ReadFrameInt16Into: %v allocs/record, want 0", a)
	}

	h := testHeader(3)
	cf, ct := testFrames(h.NumRx, 300, frames, 6)
	tr, err := NewReader(bytes.NewReader(encode(t, h, cf, ct)))
	if err != nil {
		t.Fatal(err)
	}
	var dst []dsp.ComplexFrame
	read := func() {
		if dst, tdst, err = tr.ReadFrameTruthsInto(dst, tdst[:0]); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if a := testing.AllocsPerRun(runs, read); a != 0 {
		t.Errorf("warm ReadFrameTruthsInto: %v allocs/record, want 0", a)
	}
}

// TestWarmWritesAllocateNothing pins the recorder's steady state: once
// the writer has taken a record of each shape, encoding, compressing
// and writing the next one allocates nothing, on the int16 and the
// float64 sweep encoding.
func TestWarmWritesAllocateNothing(t *testing.T) {
	const runs = 20
	h16 := radioHeaderInt16()
	codes, truths := testFramesInt16(h16.NumRx, h16.SweepsPerFrame*h16.SamplesPerSweep, 2, 5)
	h := testSweepHeader(3)
	h.SamplesPerSweep = 600
	cf, ct := testFrames(h.NumRx, h.SweepsPerFrame*h.SamplesPerSweep/2, 2, 6)
	for _, tc := range []struct {
		name  string
		h     Header
		write func(tw *Writer, f int) error
	}{
		{"int16", h16, func(tw *Writer, f int) error {
			return tw.WriteFrameInt16Truths(codes[f%2], truthOf(truths, f%2))
		}},
		{"float64", h, func(tw *Writer, f int) error {
			return tw.WriteFrameTruths(cf[f%2], truthOf(ct, f%2))
		}},
	} {
		tw, err := NewWriter(io.Discard, tc.h)
		if err != nil {
			t.Fatal(err)
		}
		f := 0
		write := func() {
			if err := tc.write(tw, f); err != nil {
				t.Fatal(err)
			}
			f++
		}
		write()
		write()
		if a := testing.AllocsPerRun(runs, write); a != 0 {
			t.Errorf("warm %s writes: %v allocs/record, want 0", tc.name, a)
		}
	}
}

// TestNewReaderHeapBytes bounds what opening a trace costs in heap: the
// decoder's window, input buffer and tables are allocated once here, and
// must stay within 16 KiB of what opening it with compress/gzip's
// reader cost (43,304 bytes on this int16 radio trace, header JSON
// included, with Go 1.24 on linux/amd64).
func TestNewReaderHeapBytes(t *testing.T) {
	const gzipBytes, slack = 43304, 16 << 10
	h := radioHeaderInt16()
	codes, truths := testFramesInt16(h.NumRx, h.SweepsPerFrame*h.SamplesPerSweep, 2, 7)
	data := encodeInt16(t, h, codes, truths)
	const runs = 20
	keep := make([]*Reader, runs)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range keep {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		keep[i] = r
	}
	runtime.ReadMemStats(&m1)
	per := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("NewReader: %d heap bytes", per)
	if per > gzipBytes+slack {
		t.Errorf("NewReader allocates %d bytes, over compress/gzip's %d + %d", per, gzipBytes, slack)
	}
}
