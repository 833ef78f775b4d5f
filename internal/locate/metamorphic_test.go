package locate

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"witrack/internal/geom"
)

// translated returns the array moved rigidly by d.
func translated(a geom.Array, d geom.Vec3) geom.Array {
	out := a
	out.Tx = a.Tx.Add(d)
	out.Rx = make([]geom.Vec3, len(a.Rx))
	for i, rx := range a.Rx {
		out.Rx[i] = rx.Add(d)
	}
	return out
}

// noisyRoundTrips returns the exact round trips from p, each perturbed
// by Gaussian noise of sigma meters, so a fix is a least-squares
// compromise rather than the exact target.
func noisyRoundTrips(a geom.Array, p geom.Vec3, sigma float64, rng *rand.Rand) []float64 {
	r := a.RoundTrips(p)
	for i := range r {
		r[i] += sigma * rng.NormFloat64()
	}
	return r
}

// TestSolveTranslationEquivariant is a metamorphic oracle for the
// localizer: round trips are distances, so the same measurements taken
// by an array moved by a plan-view offset d describe the scene moved by
// d, and the fix must move by exactly d. It holds on the T array and on
// the "+" array, with every antenna (Solve) and, on the "+" array, with
// one antenna down (SolveMasked). Offsets keep z and never lower y:
// Solve rejects fixes at y <= 0 and clamps z to [MinZ, MaxZ] in
// absolute coordinates, so a vertical offset, or one that moves a fix
// across y = 0, would change the clamp or the verdict.
func TestSolveTranslationEquivariant(t *testing.T) {
	const cases, tol = 500, 1e-9
	rng := rand.New(rand.NewSource(61))
	worst := 0.0
	for _, base := range []geom.Array{geom.NewTArray(1, 1.5), plusArray()} {
		l, err := New(base)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < cases; c++ {
			p := geom.Vec3{X: -3 + 6*rng.Float64(), Y: 2 + 7*rng.Float64(), Z: 0.3 + 1.5*rng.Float64()}
			d := geom.Vec3{X: -5 + 10*rng.Float64(), Y: 2 * rng.Float64()}
			moved, err := New(translated(base, d))
			if err != nil {
				t.Fatal(err)
			}
			ests := estimates(noisyRoundTrips(base, p, 0.03, rng))
			check := func(name string, want, got geom.Vec3, err, errMoved error) {
				t.Helper()
				if err != nil || errMoved != nil {
					t.Fatalf("%d Rx case %d %s: error %v at the origin, %v moved by %v", len(base.Rx), c, name, err, errMoved, d)
				}
				e := got.Dist(want.Add(d))
				if e > tol {
					t.Fatalf("%d Rx case %d %s: moving the array by %v moved the fix %v to %v, off by %.3g m",
						len(base.Rx), c, name, d, want, got, e)
				}
				worst = max(worst, e)
			}
			want, err := l.Solve(ests)
			got, errMoved := moved.Solve(ests)
			check("Solve", want, got, err, errMoved)
			if len(base.Rx) > 3 {
				healthy := maskOut(len(base.Rx), rng.Intn(len(base.Rx)))
				want, _, err = l.SolveMasked(ests, healthy)
				got, _, errMoved = moved.SolveMasked(ests, healthy)
				check("SolveMasked", want, got, err, errMoved)
			}
		}
	}
	t.Logf("worst deviation from exact equivariance: %.3g m", worst)
}

// TestSolveKCandidateOrderInvariant is a metamorphic oracle for the
// k-target assignment: an antenna reports its k round-trip candidates
// in no particular order, so on the four-antenna "+" array, permuting
// each antenna's candidates must leave SolveK's set of positions
// bit-identical (compared sorted; target order is an assignment
// choice). On the three-antenna T array every assignment solves with
// about zero residual, so the winner there is the first assignment
// enumerated, and candidate order can change it.
func TestSolveKCandidateOrderInvariant(t *testing.T) {
	const cases = 300
	arr := plusArray()
	l, err := New(arr)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(67))
	sorted := func(ps []geom.Vec3) []geom.Vec3 {
		out := slices.Clone(ps)
		slices.SortFunc(out, func(a, b geom.Vec3) int {
			return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y), cmp.Compare(a.Z, b.Z))
		})
		return out
	}
	for c := 0; c < cases; c++ {
		k := 2 + c%2
		cands := make([][]float64, len(arr.Rx))
		for ti := 0; ti < k; ti++ {
			p := geom.Vec3{X: -3 + 6*rng.Float64(), Y: 2 + 7*rng.Float64(), Z: 0.3 + 1.5*rng.Float64()}
			for a, r := range noisyRoundTrips(arr, p, 0.02, rng) {
				cands[a] = append(cands[a], r)
			}
		}
		want, err := SolveK(l, cands, nil, false)
		perm := make([][]float64, len(cands))
		for a := range cands {
			perm[a] = slices.Clone(cands[a])
			rng.Shuffle(k, func(i, j int) { perm[a][i], perm[a][j] = perm[a][j], perm[a][i] })
		}
		got, errPerm := SolveK(l, perm, nil, false)
		if !errors.Is(errPerm, err) {
			t.Fatalf("case %d (k=%d): error %v, %v after permuting the candidates", c, k, err, errPerm)
		}
		if w, g := sorted(want), sorted(got); !slices.Equal(w, g) {
			t.Fatalf("case %d (k=%d): positions %v became %v after permuting the candidates", c, k, w, g)
		}
	}
}
