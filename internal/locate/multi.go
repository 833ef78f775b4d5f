package locate

import (
	"errors"
	"math"

	"witrack/internal/geom"
)

// Continuity is a tie-breaker, not an anchor: its per-person
// contribution is capped so an early wrong assignment cannot
// perpetuate itself against the residual evidence.
const (
	continuityWeight = 0.5
	continuityCap    = 1.0
)

// maxJointAssignments bounds the assignment search space: (k!)^nRx
// complete assignments exist for k targets on nRx antennas, and the
// exhaustive branch-and-bound below refuses to enumerate more than
// this many (k=3 on 3 antennas is 216; k=4 on 4 antennas is ~330k).
const maxJointAssignments = 1 << 20

// kScratch is SolveK's reusable workspace (per Locator, single
// goroutine — the pipeline's fusion stage).
type kScratch struct {
	rT     []float64   // one target's round trips, per antenna
	used   []bool      // [antenna*k + candidate]: claimed by a shallower target
	digits []int       // [target*nRx + antenna]: mixed-radix counters
	choice []int       // [target*nRx + antenna]: chosen candidate index
	pos    []geom.Vec3 // current partial assignment's positions
	best   []geom.Vec3 // best complete assignment's positions
}

func (s *kScratch) resize(nRx, k int) {
	if len(s.rT) != nRx {
		s.rT = make([]float64, nRx)
	}
	if len(s.used) != nRx*k {
		s.used = make([]bool, nRx*k)
	}
	for i := range s.used {
		s.used[i] = false
	}
	if len(s.digits) != k*nRx {
		s.digits = make([]int, k*nRx)
		s.choice = make([]int, k*nRx)
	}
	if len(s.pos) != k {
		s.pos = make([]geom.Vec3, k)
		s.best = make([]geom.Vec3, k)
	}
}

// SolveK resolves the k-target assignment ambiguity, generalizing the
// paper's §10 two-person sketch: each receive antenna reports k
// round-trip candidates (r[antenna][candidate]) without knowing which
// target produced which, so a joint assignment is one bijection of
// candidates to targets per antenna — (k!)^nRx in all. SolveK scores a
// complete assignment by the sum of the k solutions' residual RMS plus
// (when havePrev) capped continuity with each target's previous
// position, exactly the §10 disambiguation, and returns the positions
// of the best assignment in target order.
//
// The search is branch-and-bound over targets: target 0's candidates
// are fixed first (one per antenna), solved and scored, and the
// subtree is pruned when the partial score already reaches the best
// complete score. Both the partial and the complete score are
// accumulated in target order, and every term is non-negative, so
// pruning never discards an assignment that could strictly win — the
// result is bit-identical to full enumeration (and, at k=2, to the
// historical bitmask search).
func SolveK(l *Locator, r [][]float64, prev []geom.Vec3, havePrev bool) ([]geom.Vec3, error) {
	nRx := len(l.Array.Rx)
	if len(r) != nRx || nRx == 0 {
		return nil, errors.New("locate: SolveK needs one candidate set per receive antenna")
	}
	k := len(r[0])
	for _, cands := range r {
		if len(cands) != k {
			return nil, errors.New("locate: ragged candidate sets (need one TOF per target per antenna)")
		}
	}
	if k < 1 {
		return nil, errors.New("locate: SolveK needs at least one target")
	}
	if havePrev && len(prev) < k {
		return nil, errors.New("locate: SolveK needs one previous position per target")
	}
	fact := 1.0
	for i := 2; i <= k; i++ {
		fact *= float64(i)
	}
	space := 1.0
	for a := 0; a < nRx; a++ {
		space *= fact
		if space > maxJointAssignments {
			return nil, errors.New("locate: assignment space too large for exhaustive search")
		}
	}

	s := &l.ks
	s.resize(nRx, k)
	best := math.Inf(1)
	found := false

	// walk enumerates target t's per-antenna candidate choices as a
	// mixed-radix counter (antenna 0 varying fastest, unused candidates
	// in increasing index order), so complete assignments are visited in
	// the bitmask order of the historical two-person search — ties
	// resolve identically.
	var walk func(t int, resSum, contSum float64)
	walk = func(t int, resSum, contSum float64) {
		digits := s.digits[t*nRx : (t+1)*nRx]
		choice := s.choice[t*nRx : (t+1)*nRx]
		for i := range digits {
			digits[i] = 0
		}
		avail := k - t
		for {
			for a := 0; a < nRx; a++ {
				used := s.used[a*k : (a+1)*k]
				n := 0
				for c := 0; c < k; c++ {
					if used[c] {
						continue
					}
					if n == digits[a] {
						choice[a] = c
						break
					}
					n++
				}
				s.rT[a] = r[a][choice[a]]
			}
			if p, err := l.solveOne(s.rT); err == nil {
				res := resSum + geom.ResidualRMS(l.Array, s.rT, p)
				cont := contSum
				score := res
				if havePrev {
					cont += math.Min(p.Dist(prev[t]), continuityCap)
					score = res + continuityWeight*cont
				}
				// Partial scores only grow (every term is >= 0), so a
				// partial already at best can never strictly beat it.
				if score < best {
					s.pos[t] = p
					if t == k-1 {
						best = score
						copy(s.best, s.pos)
						found = true
					} else {
						for a := 0; a < nRx; a++ {
							s.used[a*k+choice[a]] = true
						}
						walk(t+1, res, cont)
						for a := 0; a < nRx; a++ {
							s.used[a*k+choice[a]] = false
						}
					}
				}
			}
			a := 0
			for ; a < nRx; a++ {
				digits[a]++
				if digits[a] < avail {
					break
				}
				digits[a] = 0
			}
			if a == nRx {
				return
			}
		}
	}
	walk(0, 0, 0)
	if !found {
		return nil, ErrImplausible
	}
	out := make([]geom.Vec3, k)
	copy(out, s.best)
	return out, nil
}

// solveOne runs the single-point pipeline on raw round trips.
func (l *Locator) solveOne(r []float64) (geom.Vec3, error) {
	p, err := l.solver().Locate(r)
	if err != nil {
		return geom.Vec3{}, err
	}
	if l.MaxRange > 0 {
		if p.Sub(l.Array.Tx).Norm() > l.MaxRange || p.Y <= 0 {
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
