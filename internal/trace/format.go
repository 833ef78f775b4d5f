// Package trace defines the .wtrace on-disk container for recorded
// WiTrack frame streams: the bit-identical per-antenna complex frames a
// pipeline run consumes, captured once and replayed as a cheap,
// deterministic regression corpus (the role the captured RF sweeps play
// in the paper's evaluation).
//
// A trace is a self-describing, versioned binary file:
//
//	magic      [6]byte  "WTRACE"
//	version    uint16   little-endian (1 for range-bin and float64-sweep
//	                    traces, 3 for int16 traces)
//	headerLen  uint32   little-endian
//	header     JSON     (Header: radio config, array geometry, seed,
//	                     frame clock, optional scenario provenance)
//	headerCRC  uint32   CRC-32 (IEEE) of the header JSON
//	body       gzip member of frame blocks, then one trailer block
//
// Each frame block inside the gzip member is length-prefixed and
// CRC-guarded:
//
//	payloadLen uint32   little-endian (never the trailer sentinel)
//	payload    []byte   one frame record (below)
//	payloadCRC uint32   CRC-32 (IEEE) of payload
//
// A frame record is:
//
//	index      uint32   frame number, strictly sequential from 0
//	truthCount uint8    number of ground-truth BodyStates that follow
//	                    (0 = none, 1 = single tracked subject, k>1 =
//	                    multi-person capture; at most MaxTruths)
//	truths     truthCount × [50]byte center xyz (3×f64), moving u8,
//	                    handActive u8, hand xyz (3×f64)
//	antennas   NumRx ×  (bins uint32, then bins × (re, im) float64 bits)
//
// Complex samples are stored as IEEE-754 bit patterns XORed against the
// same bin of the previous frame (zero for the first frame, or when the
// bin count changes). The static background dominates most bins and is
// bit-identical frame to frame, so the XOR zeroes the high bytes and the
// gzip layer compresses them away — while the transform stays exactly
// lossless, including NaN payloads.
//
// Version 2 added a second sweep-domain record encoding (Header.Sample
// == SampleInt16): quantized ADC codes instead of float64 samples. Its
// frame record keeps the index/truths prefix and per-antenna framing.
// Each sample is stored as the wrapping int16 difference against the
// same sample of the previous frame (zero for the first frame, or when
// the count changes) — exactly invertible, and because the static
// background synthesizes to identical codes frame after frame, the
// deltas zero it out entirely, leaving only quantization-scale noise
// for gzip: 4x smaller raw than the float64 encoding and far more
// compressible than XOR'd float64 noise mantissas. Since version 3
// each antenna's body is byte-planar:
//
//	count      uint32   samples (SweepsPerFrame × SamplesPerSweep)
//	low        count × byte, the low byte of each delta
//	high       count × byte, the high byte of each delta
//
// Small deltas make the high plane near-constant runs of 0x00 and 0xFF
// that DEFLATE codes cheaply, where interleaved bytes broke them into
// short literals and matches (the byte-shuffle filter HDF5 and Blosc
// apply before DEFLATE). A version-2 body holds the same deltas as
// count × int16 little-endian; readers still decode it. The stream
// ends with a trailer:
//
//	sentinel   uint32   0xFFFFFFFF
//	frames     uint64   total frame count
//	trailerCRC uint32   CRC-32 (IEEE) of the count bytes
//
// A reader that hits end-of-stream before the trailer, or any CRC or
// sequencing violation, reports ErrCorrupt — truncated or bit-flipped
// traces never decode silently and never panic.
//
// The body is one standard gzip member (RFC 1952), so any gzip tool
// reads it. A range-bin trace's body is written by compress/gzip at
// BestCompression. A sweep trace's body is assembled by the Writer
// (member.go): each sample plane — an int16 antenna body's low-byte or
// high-byte plane, a float64 sweep antenna's XOR body — is deflated at
// DefaultCompression with fresh history and kept as that DEFLATE
// segment only when it saves at least an eighth of the plane; every
// other byte sits in stored blocks, which a reader copies instead of
// Huffman-decoding. No decompressed byte depends on that layout, so it
// has no container version: a sweep trace whose body is one
// compress/gzip stream, as earlier writers made it, reads the same.
// Reader decodes the body with the package's own allocation-free
// DEFLATE decoder (inflate.go), which accepts and rejects exactly the
// streams compress/gzip does and is tested against it as the oracle.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"witrack/internal/fmcw"
	"witrack/internal/geom"
)

// Magic identifies a .wtrace file.
var Magic = [6]byte{'W', 'T', 'R', 'A', 'C', 'E'}

// Version is the current container version. Readers accept versions 1
// through Version and reject newer ones (the format is self-describing
// within a version, not across). Version 2 added the SampleInt16
// quantized sweep encoding; version 3 stores its deltas as byte planes.
// Writers stamp the lowest version that can describe their header, so
// traces without int16 records stay byte-identical to version-1 output
// and old readers keep decoding them.
const (
	Version         = 3
	versionPlain    = 1
	versionPlanar16 = 3
)

// Ext is the conventional file extension.
const Ext = ".wtrace"

var (
	// ErrCorrupt reports a malformed, truncated, or bit-flipped trace.
	ErrCorrupt = errors.New("trace: corrupt or truncated trace")
	// ErrVersion reports a container version this reader cannot decode.
	ErrVersion = errors.New("trace: unsupported trace version")
)

// trailerSentinel marks the trailer block in place of a payload length.
const trailerSentinel = 0xFFFFFFFF

// MaxTruths bounds the per-frame ground-truth count: far above any
// plausible concurrent-subject count, low enough that a flipped count
// byte is caught as corruption instead of a silent mis-decode.
const MaxTruths = 16

// MaxNumRx caps the antenna count a header may declare: 64, far above
// the repo's 3- and 4-antenna arrays. A reader sizes per-antenna state
// from the header before the first frame, so the cap keeps a forged
// header from allocating without bound.
const MaxNumRx = 64

// maxHeaderLen bounds the JSON header so a corrupt length prefix cannot
// force a huge allocation.
const maxHeaderLen = 1 << 20

// maxPayloadLen bounds one frame block for the same reason. A default
// radio records ~13 KB per frame; 16 MB leaves room for much larger
// arrays without letting a flipped bit allocate gigabytes.
const maxPayloadLen = 1 << 24

// Header is the self-describing trace metadata, stored as JSON so the
// file documents itself (and survives field additions). Interval and
// NumRx are required; everything else is provenance that lets tooling
// rebuild the deployment that produced the frames.
type Header struct {
	// Name labels the trace (scenario name for scenario captures).
	Name string `json:"name,omitempty"`
	// DeviceIndex is the device placement within the scenario's fleet.
	DeviceIndex int `json:"device,omitempty"`
	// Seed is the simulation seed the recording device ran with.
	Seed int64 `json:"seed,omitempty"`
	// Interval is the frame clock in seconds per frame: frame i carries
	// the signal at t = i*Interval.
	Interval float64 `json:"interval"`
	// NumRx is the receive-antenna count of every frame.
	NumRx int `json:"num_rx"`
	// Bins is the per-antenna frame length. The per-record length
	// prefixes frame the records; a bin-domain replay (core's
	// TraceSource) rejects a record whose length differs from Bins.
	Bins int `json:"bins,omitempty"`
	// Frames is the expected frame count (informational; the trailer is
	// authoritative). Zero when the recorder streamed an unknown length.
	Frames int `json:"frames,omitempty"`
	// Radio is the FMCW sweep configuration of the recording device.
	Radio fmcw.Config `json:"radio"`
	// Array is the antenna geometry of the recording device.
	Array geom.Array `json:"array"`
	// CalibrateFrames, when positive, records that the device installed
	// an empty-room background calibration of that many frames before
	// the capture; a replaying device must do the same.
	CalibrateFrames int `json:"calibrate_frames,omitempty"`
	// Scenario is the verbatim scenario spec JSON that produced this
	// trace (empty for raw device captures). Replay tooling recompiles
	// it so the replaying device matches the recording one exactly.
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// Domain says what the per-antenna records hold: "" (the default)
	// is processed complex range bins; DomainSweeps is raw time-domain
	// sweep samples packed pairwise into the same complex record layout
	// (sample 2i in the real part, 2i+1 in the imaginary part), so the
	// binary framing, CRC, and XOR-delta machinery are unchanged. A
	// sweep-domain replay runs the full window + RFFT + averaging path
	// per frame.
	Domain string `json:"domain,omitempty"`
	// SweepsPerFrame / SamplesPerSweep shape a sweep-domain record:
	// each antenna's record is SweepsPerFrame*SamplesPerSweep/2 complex
	// values. Zero (and omitted) for bin-domain traces.
	SweepsPerFrame  int `json:"sweeps_per_frame,omitempty"`
	SamplesPerSweep int `json:"samples_per_sweep,omitempty"`
	// Sample says how sweep-domain records encode their samples: ""
	// (the default) is the lossless complex-packed float64 encoding;
	// SampleInt16 is quantized ADC codes in delta-coded int16 bodies.
	// Only valid with DomainSweeps.
	Sample string `json:"sample,omitempty"`
	// ADCBits / ADCScale describe the quantizer of a SampleInt16 trace:
	// signed ADCBits-bit codes that dequantize as float64(code) *
	// ADCScale. Zero (and omitted) for other encodings.
	ADCBits  int     `json:"adc_bits,omitempty"`
	ADCScale float64 `json:"adc_scale,omitempty"`
}

// DomainSweeps marks a trace whose records carry raw time-domain sweeps
// instead of processed range bins.
const DomainSweeps = "sweeps"

// SampleInt16 marks a sweep-domain trace whose records carry quantized
// ADC codes (delta-coded int16 bodies) instead of float64 samples.
const SampleInt16 = "int16"

// Validate checks the header fields a reader depends on.
func (h *Header) Validate() error {
	if h.Interval <= 0 {
		return fmt.Errorf("%w: non-positive frame interval %g", ErrCorrupt, h.Interval)
	}
	if h.NumRx <= 0 || h.NumRx > MaxNumRx {
		return fmt.Errorf("%w: antenna count %d is outside 1..%d", ErrCorrupt, h.NumRx, MaxNumRx)
	}
	if h.Bins < 0 || h.Frames < 0 || h.CalibrateFrames < 0 {
		return fmt.Errorf("%w: negative header count", ErrCorrupt)
	}
	switch h.Domain {
	case "":
		if h.SweepsPerFrame != 0 || h.SamplesPerSweep != 0 {
			return fmt.Errorf("%w: sweep shape on a bin-domain trace", ErrCorrupt)
		}
		if h.Sample != "" {
			return fmt.Errorf("%w: sample encoding %q on a bin-domain trace", ErrCorrupt, h.Sample)
		}
	case DomainSweeps:
		// The caps are the radio's own (fmcw.Config.Validate), so the
		// per-frame sample count spf*ns cannot overflow an int.
		if h.SweepsPerFrame <= 0 || h.SamplesPerSweep <= 0 ||
			h.SweepsPerFrame > fmcw.MaxSweepsPerFrame || h.SamplesPerSweep > fmcw.MaxSamplesPerSweep {
			return fmt.Errorf("%w: sweep shape %d × %d is outside 1..%d sweeps of 1..%d samples",
				ErrCorrupt, h.SweepsPerFrame, h.SamplesPerSweep, fmcw.MaxSweepsPerFrame, fmcw.MaxSamplesPerSweep)
		}
		switch h.Sample {
		case "":
			// Complex-packed float64 samples pair up pairwise; int16
			// records don't, so the evenness constraint is per-encoding.
			if h.SweepsPerFrame*h.SamplesPerSweep%2 != 0 {
				return fmt.Errorf("%w: sweep-domain frame of %d samples cannot pack into complex pairs",
					ErrCorrupt, h.SweepsPerFrame*h.SamplesPerSweep)
			}
		case SampleInt16:
			switch h.ADCBits {
			case 12, 14, 16:
			default:
				return fmt.Errorf("%w: int16 trace ADC resolution %d bits is not 12, 14, or 16", ErrCorrupt, h.ADCBits)
			}
			if !(h.ADCScale > 0) || math.IsInf(h.ADCScale, 0) {
				return fmt.Errorf("%w: int16 trace ADC scale %g is not positive and finite", ErrCorrupt, h.ADCScale)
			}
		default:
			return fmt.Errorf("%w: unknown sample encoding %q", ErrCorrupt, h.Sample)
		}
	default:
		return fmt.Errorf("%w: unknown trace domain %q", ErrCorrupt, h.Domain)
	}
	if h.Sample != SampleInt16 && (h.ADCBits != 0 || h.ADCScale != 0) {
		return fmt.Errorf("%w: quantizer fields on a %q-sample trace", ErrCorrupt, h.Sample)
	}
	return nil
}
