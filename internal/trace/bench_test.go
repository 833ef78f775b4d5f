package trace

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"testing"
)

// benchFrames is how many distinct frames the trace benchmarks cycle
// through; the read benchmark reopens its trace, untimed, after each
// pass.
const benchFrames = 48

// radioCodes returns n int16 frames in h's shape, modelled on a
// recorded default-radio trace: a fixed background, one moving
// reflector's beat tone (60 cycles a sweep, 400 codes) whose phase
// advances 0.125–0.375 rad a frame, and σ = 2.5 codes of sample noise.
// Its frame-to-frame deltas have an RMS of ~73 codes, 95% of them below
// 128, and vary smoothly along the sweep, as the recorded trace's do
// (69 codes, 93%). Independent σ = 40 noise has similar deltas but no
// such runs in their high bytes, and made the writer's compressor ~6x
// slower than on the recorded trace.
func radioCodes(h Header, n int) [][][]int16 {
	const amp, cycles, noise = 400, 60, 2.5
	rng := rand.New(rand.NewSource(1))
	ns := h.SamplesPerSweep
	bg := make([]int16, ns)
	for i := range bg {
		bg[i] = int16(rng.Intn(1<<13) - 1<<12)
	}
	phase := make([]float64, h.NumRx)
	frames := make([][][]int16, n)
	for f := range frames {
		frames[f] = make([][]int16, h.NumRx)
		for k := range frames[f] {
			phase[k] += 0.125 + 0.25*rng.Float64()
			c := make([]int16, h.SweepsPerFrame*ns)
			for i := range c {
				tone := amp * math.Cos(2*math.Pi*cycles*float64(i%ns)/float64(ns)+phase[k])
				c[i] = bg[i%ns] + int16(math.Round(tone+noise*rng.NormFloat64()))
			}
			frames[f][k] = c
		}
	}
	return frames
}

// countWriter discards what it is given and counts the bytes.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// BenchmarkWriteFrameInt16 times recording one default-radio int16 frame
// (3 antennas × 5 sweeps × 2,500 codes): delta coding, the byte planes
// and the compressor. An op is one frame; B/frame is the compressed
// body it adds.
func BenchmarkWriteFrameInt16(b *testing.B) {
	h := radioHeaderInt16()
	frames := radioCodes(h, benchFrames)
	var out countWriter
	tw, err := NewWriter(&out, h)
	if err != nil {
		b.Fatal(err)
	}
	preamble := out.n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tw.WriteFrameInt16Truths(frames[i%len(frames)], nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(out.n-preamble)/float64(b.N), "B/frame")
}

// BenchmarkReadFrameInt16 times replaying one default-radio int16 frame
// through ReadFrameInt16Into on a warm reader: inflate, CRC and the
// undelta. An op is one frame, so allocs/op is allocs per frame (0 when
// warm); B/frame is the compressed trace per frame.
func BenchmarkReadFrameInt16(b *testing.B) {
	h := radioHeaderInt16()
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, h)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range radioCodes(h, benchFrames) {
		if err := tw.WriteFrameInt16Truths(f, nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	var (
		r   *Reader
		dst [][]int16
	)
	// open starts a pass over the trace and decodes its first frame, so
	// every timed read runs with the reader's buffers already sized.
	open := func() {
		if r, err = NewReader(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
		if dst, _, err = r.ReadFrameInt16Into(dst, nil); err != nil {
			b.Fatal(err)
		}
	}
	open()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _, err = r.ReadFrameInt16Into(dst, nil)
		if err == io.EOF {
			b.StopTimer()
			open()
			b.StartTimer()
			dst, _, err = r.ReadFrameInt16Into(dst, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data))/benchFrames, "B/frame")
}
