// Package locate maps per-antenna round-trip distance estimates to 3D
// positions (paper §5), adding the physical sanity constraints the raw
// geometric solver does not know about: the beam half-space, the floor,
// and the ceiling.
package locate

import (
	"errors"

	"witrack/internal/geom"
	"witrack/internal/track"
)

// Locator converts synchronized per-antenna estimates to 3D points. It
// carries reusable solver workspace, so a Locator must be driven from a
// single goroutine at a time (the pipeline's fusion stage is); share an
// array between goroutines by giving each its own Locator.
type Locator struct {
	Array geom.Array
	// MinZ/MaxZ clamp the solution to the physically possible elevation
	// band (people are between the floor and the ceiling).
	MinZ, MaxZ float64
	// MaxRange rejects solutions implausibly far from the device
	// (inconsistent round-trip triples can send the intersection to
	// infinity).
	MaxRange float64

	// geo is the per-frame geometric solver with its reused workspace;
	// r is round-trip scratch and ks the SolveK assignment workspace.
	// All are created lazily so a hand-constructed Locator{Array: ...}
	// keeps working.
	geo *geom.Solver
	r   []float64
	ks  kScratch

	// subs caches the degraded-mode sub-array locators by antenna
	// bitmask, and subEsts is SolveMasked's estimate-compaction scratch.
	// Both live on the same single-goroutine discipline as the rest of
	// the workspace.
	subs    map[uint64]*Locator
	subEsts []track.Estimate
}

// New builds a locator for the antenna array. It returns an error if the
// array cannot resolve 3D positions.
func New(array geom.Array) (*Locator, error) {
	if err := array.Validate(); err != nil {
		return nil, err
	}
	return &Locator{Array: array, MinZ: 0, MaxZ: 3, MaxRange: 30}, nil
}

// solver returns the lazily created geometric solver.
func (l *Locator) solver() *geom.Solver {
	if l.geo == nil {
		l.geo = geom.NewSolver(l.Array)
	}
	return l.geo
}

// ErrNotReady means one or more antennas has no valid estimate yet.
var ErrNotReady = errors.New("locate: trackers not ready")

// ErrImplausible means the geometric solution fell outside the plausible
// tracking volume (inconsistent measurements).
var ErrImplausible = errors.New("locate: solution outside plausible volume")

// Solve computes the 3D position from one estimate per receive antenna.
func (l *Locator) Solve(ests []track.Estimate) (geom.Vec3, error) {
	if len(l.r) != len(ests) {
		l.r = make([]float64, len(ests))
	}
	r := l.r
	for i, e := range ests {
		if !e.Valid {
			return geom.Vec3{}, ErrNotReady
		}
		r[i] = e.RoundTrip
	}
	p, err := l.solver().Locate(r)
	if err != nil {
		return geom.Vec3{}, err
	}
	if l.MaxRange > 0 {
		d := p.Sub(l.Array.Tx)
		if d.Norm() > l.MaxRange || p.Y <= 0 {
			return geom.Vec3{}, ErrImplausible
		}
	}
	if p.Z < l.MinZ {
		p.Z = l.MinZ
	}
	if p.Z > l.MaxZ {
		p.Z = l.MaxZ
	}
	return p, nil
}

// ErrTooFewHealthy means too few antennas remained healthy for a 3D
// fix: ellipsoid intersection needs at least three receive antennas
// (geom.Solver's floor), so a degraded array below that cannot locate.
var ErrTooFewHealthy = errors.New("locate: too few healthy antennas for a 3D fix")

// maskedAntennaLimit bounds the Sub bitmask width. Real deployments run
// 3-4 antennas; the limit exists only so the mask arithmetic is safe.
const maskedAntennaLimit = 64

// Sub returns a locator over the subset of receive antennas whose mask
// bit is set, sharing the parent's plausibility bounds and cached per
// mask (the same degradation pattern recurs every frame of an outage,
// so the sub-array solver workspace is built once). It fails when the
// subset cannot resolve 3D positions (fewer than three antennas, or a
// collinear remainder).
func (l *Locator) Sub(mask uint64) (*Locator, error) {
	if l.subs == nil {
		l.subs = make(map[uint64]*Locator)
	}
	if s, ok := l.subs[mask]; ok {
		return s, nil
	}
	rx := make([]geom.Vec3, 0, len(l.Array.Rx))
	for i, p := range l.Array.Rx {
		if mask&(1<<uint(i)) != 0 {
			rx = append(rx, p)
		}
	}
	sub, err := New(geom.Array{Tx: l.Array.Tx, Rx: rx, BeamHalfAngle: l.Array.BeamHalfAngle})
	if err != nil {
		return nil, err
	}
	sub.MinZ, sub.MaxZ, sub.MaxRange = l.MinZ, l.MaxZ, l.MaxRange
	l.subs[mask] = sub
	return sub, nil
}

// SolveMasked computes the 3D position from the subset of estimates
// whose healthy flag is set — the graceful-degradation entry point.
// With every antenna healthy it delegates to Solve and is bit-identical
// to it; with fewer it solves on the cached sub-array (nRx-1 geometry
// still locates when at least three non-collinear antennas remain) and
// reports how many antennas the fix used, so callers can flag the
// sample as degraded.
func (l *Locator) SolveMasked(ests []track.Estimate, healthy []bool) (geom.Vec3, int, error) {
	if len(healthy) != len(ests) || len(ests) > maskedAntennaLimit {
		return geom.Vec3{}, 0, errors.New("locate: SolveMasked needs one health flag per antenna (at most 64)")
	}
	n := 0
	var mask uint64
	for i, h := range healthy {
		if h {
			n++
			mask |= 1 << uint(i)
		}
	}
	if n == len(ests) {
		p, err := l.Solve(ests)
		return p, n, err
	}
	if n < 3 {
		return geom.Vec3{}, n, ErrTooFewHealthy
	}
	sub, err := l.Sub(mask)
	if err != nil {
		return geom.Vec3{}, n, err
	}
	se := l.subEsts[:0]
	for i, e := range ests {
		if healthy[i] {
			se = append(se, e)
		}
	}
	l.subEsts = se
	p, err := sub.Solve(se)
	return p, n, err
}
