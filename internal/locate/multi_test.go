package locate

import (
	"math"
	"math/rand"
	"testing"

	"witrack/internal/geom"
)

// solveTwoBitmaskReference is the historical two-person solver: the
// 2^nRx bitmask enumeration the two-person path shipped with before
// SolveK subsumed it. It is kept verbatim as the oracle for SolveK's
// k=2 bit-identity guarantee.
func solveTwoBitmaskReference(l *Locator, r [][]float64, prev []geom.Vec3, havePrev bool) ([2]geom.Vec3, error) {
	nRx := len(l.Array.Rx)
	if len(r) != nRx {
		return [2]geom.Vec3{}, ErrImplausible
	}
	best := math.Inf(1)
	var bestPair [2]geom.Vec3
	found := false
	rA := make([]float64, nRx)
	rB := make([]float64, nRx)
	for mask := 0; mask < 1<<nRx; mask++ {
		for k := 0; k < nRx; k++ {
			sel := (mask >> k) & 1
			rA[k] = r[k][sel]
			rB[k] = r[k][1-sel]
		}
		pA, errA := l.solveOne(rA)
		if errA != nil {
			continue
		}
		pB, errB := l.solveOne(rB)
		if errB != nil {
			continue
		}
		score := geom.ResidualRMS(l.Array, rA, pA) + geom.ResidualRMS(l.Array, rB, pB)
		if havePrev {
			score += continuityWeight * (math.Min(pA.Dist(prev[0]), continuityCap) + math.Min(pB.Dist(prev[1]), continuityCap))
		}
		if score < best {
			best = score
			bestPair = [2]geom.Vec3{pA, pB}
			found = true
		}
	}
	if !found {
		return [2]geom.Vec3{}, ErrImplausible
	}
	return bestPair, nil
}

// TestSolveKMatchesBitmaskReference drives SolveK at k=2 and the
// historical bitmask enumeration over randomized
// fixtures — noisy measurements, scrambled slots, with and without
// continuity — and requires bit-identical outputs, including matching
// error outcomes. This is the k=2 equivalence seam of the k-target
// refactor.
func TestSolveKMatchesBitmaskReference(t *testing.T) {
	arr := geom.NewTArray(1, 1.5)
	rng := rand.New(rand.NewSource(42))
	agree := 0
	for trial := 0; trial < 400; trial++ {
		// Two independent locators so scratch reuse cannot cross-feed.
		lK, err := New(arr)
		if err != nil {
			t.Fatal(err)
		}
		lRef, _ := New(arr)
		pA := geom.Vec3{X: -3 + 6*rng.Float64(), Y: 1 + 8*rng.Float64(), Z: 0.3 + 1.5*rng.Float64()}
		pB := geom.Vec3{X: -3 + 6*rng.Float64(), Y: 1 + 8*rng.Float64(), Z: 0.3 + 1.5*rng.Float64()}
		rA := arr.RoundTrips(pA)
		rB := arr.RoundTrips(pB)
		pairs := make([][]float64, len(rA))
		for k := range pairs {
			a := rA[k] + rng.NormFloat64()*0.05
			b := rB[k] + rng.NormFloat64()*0.05
			if rng.Intn(2) == 0 {
				a, b = b, a // scramble the slot assignment
			}
			pairs[k] = []float64{a, b}
		}
		havePrev := trial%2 == 0
		prev := []geom.Vec3{
			pA.Add(geom.Vec3{X: rng.NormFloat64() * 0.3, Y: rng.NormFloat64() * 0.3}),
			pB.Add(geom.Vec3{X: rng.NormFloat64() * 0.3, Y: rng.NormFloat64() * 0.3}),
		}
		got, errK := SolveK(lK, pairs, prev, havePrev)
		want, errRef := solveTwoBitmaskReference(lRef, pairs, prev, havePrev)
		if (errK == nil) != (errRef == nil) {
			t.Fatalf("trial %d: error mismatch: SolveK %v, reference %v", trial, errK, errRef)
		}
		if errK != nil {
			continue
		}
		agree++
		for i := 0; i < 2; i++ {
			if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) ||
				math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) ||
				math.Float64bits(got[i].Z) != math.Float64bits(want[i].Z) {
				t.Fatalf("trial %d person %d: SolveK %v != bitmask reference %v (havePrev=%v)",
					trial, i, got[i], want[i], havePrev)
			}
		}
	}
	if agree < 100 {
		t.Fatalf("only %d solvable fixtures out of 400 — fixtures too hostile to prove equivalence", agree)
	}
	t.Logf("%d/400 fixtures solved, all bit-identical", agree)
}

// TestSolveKRecoversThreeTargets feeds three deliberately scrambled
// per-antenna candidate sets and requires all three positions back —
// the new k=3 capability.
func TestSolveKRecoversThreeTargets(t *testing.T) {
	arr := geom.NewTArray(1, 1.5)
	l, err := New(arr)
	if err != nil {
		t.Fatal(err)
	}
	pts := []geom.Vec3{
		{X: -2, Y: 3.5, Z: 1.0},
		{X: 0.5, Y: 6.0, Z: 1.2},
		{X: 2.5, Y: 8.5, Z: 0.9},
	}
	rt := make([][]float64, len(pts))
	for i, p := range pts {
		rt[i] = arr.RoundTrips(p)
	}
	// Scramble candidate order differently per antenna.
	perms := [][]int{{2, 0, 1}, {1, 2, 0}, {0, 1, 2}}
	cands := make([][]float64, len(arr.Rx))
	for a := range cands {
		cands[a] = make([]float64, len(pts))
		for c, ti := range perms[a] {
			cands[a][c] = rt[ti][a]
		}
	}
	got, err := SolveK(l, cands, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("SolveK returned %d positions, want 3", len(got))
	}
	// The output order is an assignment choice; require a perfect
	// matching of solutions to the true points.
	matched := make([]bool, len(pts))
	for _, g := range got {
		ok := false
		for i, p := range pts {
			if !matched[i] && g.Dist(p) < 1e-3 {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("solution %v matches no true position (truth %v)", g, pts)
		}
	}
}

// TestSolveKContinuityOrdersTargets pins the continuity term at k=3:
// with previous positions supplied, the output slots follow them.
func TestSolveKContinuityOrdersTargets(t *testing.T) {
	arr := geom.NewTArray(1, 1.5)
	l, _ := New(arr)
	pts := []geom.Vec3{
		{X: -2, Y: 3.5, Z: 1.0},
		{X: 0.5, Y: 6.0, Z: 1.2},
		{X: 2.5, Y: 8.5, Z: 0.9},
	}
	cands := make([][]float64, len(arr.Rx))
	for a := range cands {
		cands[a] = make([]float64, len(pts))
		for c, p := range pts {
			cands[a][c] = arr.RoundTrips(p)[a]
		}
	}
	// Previous positions in reversed order: the output must follow them.
	prev := []geom.Vec3{pts[2], pts[1], pts[0]}
	got, err := SolveK(l, cands, prev, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prev {
		if got[i].Dist(prev[i]) > 0.1 {
			t.Fatalf("slot %d drifted from its previous position: %v vs %v", i, got[i], prev[i])
		}
	}
}

// TestSolveKRejectsBadInput sweeps the argument validation.
func TestSolveKRejectsBadInput(t *testing.T) {
	arr := geom.NewTArray(1, 1.5)
	l, _ := New(arr)
	if _, err := SolveK(l, make([][]float64, 2), nil, false); err == nil {
		t.Fatal("wrong antenna count should error")
	}
	ragged := [][]float64{{1, 2}, {1, 2, 3}, {1, 2}}
	if _, err := SolveK(l, ragged, nil, false); err == nil {
		t.Fatal("ragged candidate sets should error")
	}
	empty := [][]float64{{}, {}, {}}
	if _, err := SolveK(l, empty, nil, false); err == nil {
		t.Fatal("zero targets should error")
	}
	two := [][]float64{{8, 12}, {8, 12}, {8, 12}}
	if _, err := SolveK(l, two, []geom.Vec3{{}}, true); err == nil {
		t.Fatal("short prev slice should error")
	}
	huge := make([][]float64, 3)
	for i := range huge {
		huge[i] = make([]float64, 12) // (12!)^3 joint assignments
	}
	if _, err := SolveK(l, huge, nil, false); err == nil {
		t.Fatal("oversized assignment space should error")
	}
}

func TestSolveTwoRecoversBothPositions(t *testing.T) {
	arr := geom.NewTArray(1, 1.5)
	l, err := New(arr)
	if err != nil {
		t.Fatal(err)
	}
	pA := geom.Vec3{X: -1.5, Y: 4, Z: 1.0}
	pB := geom.Vec3{X: 2, Y: 6.5, Z: 1.2}
	rA := arr.RoundTrips(pA)
	rB := arr.RoundTrips(pB)
	// Scramble the per-antenna slot assignment deliberately.
	pairs := [][]float64{
		{rA[0], rB[0]},
		{rB[1], rA[1]},
		{rB[2], rA[2]},
	}
	got, err := SolveK(l, pairs, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// Either ordering of the output is acceptable.
	d0 := got[0].Dist(pA) + got[1].Dist(pB)
	d1 := got[0].Dist(pB) + got[1].Dist(pA)
	if d0 > 1e-3 && d1 > 1e-3 {
		t.Fatalf("SolveK = %v / %v, want %v and %v", got[0], got[1], pA, pB)
	}
}

func TestSolveTwoContinuityBreaksTies(t *testing.T) {
	arr := geom.NewTArray(1, 1.5)
	l, _ := New(arr)
	pA := geom.Vec3{X: -1.5, Y: 4, Z: 1.0}
	pB := geom.Vec3{X: 2, Y: 6.5, Z: 1.2}
	pairs := make([][]float64, 3)
	rA := arr.RoundTrips(pA)
	rB := arr.RoundTrips(pB)
	for k := 0; k < 3; k++ {
		pairs[k] = []float64{rA[k], rB[k]}
	}
	// With previous positions provided, the output ordering should match
	// them.
	got, err := SolveK(l, pairs, []geom.Vec3{pB, pA}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Dist(pB) > 0.1 || got[1].Dist(pA) > 0.1 {
		t.Fatalf("continuity should order output as (B, A): got %v / %v", got[0], got[1])
	}
}

func TestSolveTwoRejectsBadInput(t *testing.T) {
	arr := geom.NewTArray(1, 1.5)
	l, _ := New(arr)
	if _, err := SolveK(l, [][]float64{{1, 2}, {1, 2}}, nil, false); err == nil {
		t.Fatal("wrong pair count should error")
	}
	// Geometrically impossible TOFs (below focal distance) on every combo.
	pairs := [][]float64{{0.1, 0.2}, {0.1, 0.2}, {0.1, 0.2}}
	if _, err := SolveK(l, pairs, nil, false); err == nil {
		t.Fatal("infeasible TOFs should error")
	}
}
