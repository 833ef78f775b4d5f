package dsp

import (
	"math"
	"testing"
)

func TestStrongestPeak(t *testing.T) {
	f := Frame{1, 2, 9, 3}
	p, ok := StrongestPeak(f)
	if !ok || p.Bin != 2 || p.Power != 9 {
		t.Fatalf("StrongestPeak = %+v", p)
	}
	if _, ok := StrongestPeak(Frame{}); ok {
		t.Fatal("empty frame should report no peak")
	}
}

func TestRefineParabolicExact(t *testing.T) {
	// Sample a parabola with vertex at 5.3; refinement should recover it.
	vertex := 5.3
	f := make(Frame, 11)
	for i := range f {
		d := float64(i) - vertex
		f[i] = 10 - d*d
	}
	got := RefineParabolic(f, 5)
	if math.Abs(got-vertex) > 1e-9 {
		t.Fatalf("RefineParabolic = %v, want %v", got, vertex)
	}
}

func TestRefineParabolicEdgesAndFlat(t *testing.T) {
	f := Frame{1, 2, 3}
	if RefineParabolic(f, 0) != 0 || RefineParabolic(f, 2) != 2 {
		t.Fatal("edges must return the input bin")
	}
	flat := Frame{2, 2, 2}
	if RefineParabolic(flat, 1) != 1 {
		t.Fatal("flat region must return the input bin")
	}
}

func TestRefineParabolicClamped(t *testing.T) {
	// Pathological neighbor values must not push the estimate further
	// than half a bin.
	f := Frame{0, 1, 0.999}
	got := RefineParabolic(f, 1)
	if got < 0.5 || got > 1.5 {
		t.Fatalf("refined bin %v escaped the half-bin clamp", got)
	}
}
