package core

import (
	"bytes"
	"testing"

	"witrack/internal/dsp"
	"witrack/internal/fmcw"
	"witrack/internal/geom"
	"witrack/internal/motion"
	"witrack/internal/trace"
)

// sweepHeader is a float64 sweep-domain trace header of the given
// shape; TraceSource reads nothing else of the radio.
func sweepHeader(nRx, spf, ns int) trace.Header {
	return trace.Header{
		Interval:        0.0125,
		NumRx:           nRx,
		Radio:           fmcw.Default(),
		Array:           geom.NewTArray(1.0, 1.5),
		Domain:          trace.DomainSweeps,
		SweepsPerFrame:  spf,
		SamplesPerSweep: ns,
	}
}

// int16Header is sweepHeader for 14-bit ADC codes.
func int16Header(nRx, spf, ns int) trace.Header {
	h := sweepHeader(nRx, spf, ns)
	h.Sample, h.ADCBits, h.ADCScale = trace.SampleInt16, 14, 1.0/8192
	return h
}

// sampleAt is sample i of antenna k in frame f of the synthetic sweep
// traces below: distinct for every (f, k, i).
func sampleAt(f, k, i int) float64 { return float64(1000*f + 100*k + i) }

// writeSweepTrace records frames of h's shape, samples from sampleAt
// (packed pairwise for float64 records), one truth each.
func writeSweepTrace(t *testing.T, h trace.Header, frames int) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	n := h.SweepsPerFrame * h.SamplesPerSweep
	truth := []motion.BodyState{{Moving: true}}
	for f := 0; f < frames; f++ {
		if h.Sample == trace.SampleInt16 {
			codes := make([][]int16, h.NumRx)
			for k := range codes {
				codes[k] = make([]int16, n)
				for i := range codes[k] {
					codes[k][i] = int16(sampleAt(f, k, i))
				}
			}
			err = tw.WriteFrameInt16Truths(codes, truth)
		} else {
			packed := make([]dsp.ComplexFrame, h.NumRx)
			for k := range packed {
				packed[k] = make(dsp.ComplexFrame, n/2)
				for i := range packed[k] {
					packed[k][i] = complex(sampleAt(f, k, 2*i), sampleAt(f, k, 2*i+1))
				}
			}
			err = tw.WriteFrameTruths(packed, truth)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceSourceUnpacksSweeps pins the float64 sweep unpacking: every
// sweep view holds its own samples in order, including sweeps of an odd
// sample count, where a packed pair straddles two sweeps, and after the
// batch has been recycled.
func TestTraceSourceUnpacksSweeps(t *testing.T) {
	const frames = 4
	for _, tc := range []struct {
		name    string
		spf, ns int
	}{
		{"even", 2, 4},
		{"odd", 2, 3},
		{"odd, four sweeps", 4, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := sweepHeader(2, tc.spf, tc.ns)
			tr, err := trace.NewReader(bytes.NewReader(writeSweepTrace(t, h, frames)))
			if err != nil {
				t.Fatal(err)
			}
			src := NewTraceSource(tr)
			for f := 0; f < frames; f++ {
				b := src.Next()
				if b == nil {
					t.Fatalf("frame %d: no batch (%v)", f, src.Err())
				}
				for k := range b.sweeps {
					if len(b.sweeps[k]) != tc.spf {
						t.Fatalf("frame %d antenna %d: %d sweeps, want %d", f, k, len(b.sweeps[k]), tc.spf)
					}
					for j, sw := range b.sweeps[k] {
						if len(sw) != tc.ns {
							t.Fatalf("frame %d antenna %d sweep %d: %d samples, want %d", f, k, j, len(sw), tc.ns)
						}
						for i, v := range sw {
							if want := sampleAt(f, k, j*tc.ns+i); v != want {
								t.Fatalf("frame %d antenna %d sweep %d sample %d = %v, want %v", f, k, j, i, v, want)
							}
						}
					}
				}
				src.Recycle(b)
			}
			if b := src.Next(); b != nil || src.Err() != nil {
				t.Fatalf("after the last frame: batch %v, error %v", b != nil, src.Err())
			}
		})
	}
}

// TestTraceSourceColdBatchAllocs bounds what a batch costs the first
// time the ring has none to recycle, as when a replay pass starts or
// more frames are in flight than it holds: six allocations, whatever
// the antenna and sweep counts — the batch, its truths, and two each
// for its int16 codes or float64 samples and for its sweep views.
func TestTraceSourceColdBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const runs, budget = 10, 6
	for _, tc := range []struct {
		name string
		h    trace.Header
	}{
		{"int16", int16Header(3, 5, 64)},
		{"float64", sweepHeader(3, 5, 64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := trace.NewReader(bytes.NewReader(writeSweepTrace(t, tc.h, runs+2)))
			if err != nil {
				t.Fatal(err)
			}
			src := NewTraceSource(tr)
			next := func() {
				if src.Next() == nil {
					t.Fatalf("trace ended early: %v", src.Err())
				}
			}
			next() // size the reader's delta chain and the source's buffers
			if a := testing.AllocsPerRun(runs, next); a > budget {
				t.Errorf("cold %s batch: %v allocations, want at most %d", tc.name, a, budget)
			}
		})
	}
}
