package lp

import (
	"context"
	"math"
	"slices"
	"testing"

	"bcclap/internal/linalg"
)

// simplexProblem: min cᵀx s.t. Σx_i = 1, 0 ≤ x ≤ 1. OPT = min_i c_i.
func simplexProblem(c []float64) (*Problem, []float64) {
	m := len(c)
	ts := make([]linalg.Triple, m)
	for i := range ts {
		ts[i] = linalg.Triple{Row: i, Col: 0, Val: 1}
	}
	prob := &Problem{
		A: linalg.NewCSR(m, 1, ts),
		B: []float64{1},
		C: append([]float64(nil), c...),
		L: make([]float64, m),
		U: linalg.Ones(m),
	}
	x0 := linalg.Constant(m, 1/float64(m))
	return prob, x0
}

// solveFresh runs Algorithm 9 on a fresh Session over prob.
func solveFresh(prob *Problem, x0 []float64, eps float64, par Params) (*Solution, error) {
	sess, err := NewSession(prob)
	if err != nil {
		return nil, err
	}
	return sess.Solve(context.Background(), x0, eps, par)
}

func TestSolveSimplexLP(t *testing.T) {
	c := []float64{3, 1, 4, 1.5, 5}
	prob, x0 := simplexProblem(c)
	sol, err := solveFresh(prob, x0, 0.05, Params{})
	if err != nil {
		t.Fatal(err)
	}
	opt := slices.Min(c)
	if sol.Objective > opt+0.1 {
		t.Fatalf("objective %v, OPT %v", sol.Objective, opt)
	}
	if r := prob.Residual(sol.X); r > 1e-6 {
		t.Fatalf("constraint violation %g", r)
	}
	for i, v := range sol.X {
		if v <= 0 || v >= 1 {
			t.Fatalf("x[%d] = %v outside open box", i, v)
		}
	}
	if sol.PathSteps == 0 || sol.Centerings == 0 {
		t.Fatal("no iterations recorded")
	}
}

func TestSolveTwoVariableLP(t *testing.T) {
	// min x₁ s.t. x₁ + x₂ = 1, 0 ≤ x ≤ 1: OPT = 0 at (0, 1).
	prob := &Problem{
		A: linalg.NewCSR(2, 1, []linalg.Triple{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 1}}),
		B: []float64{1},
		C: []float64{1, 0},
		L: []float64{0, 0},
		U: []float64{1, 1},
	}
	sol, err := solveFresh(prob, []float64{0.5, 0.5}, 0.02, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective > 0.05 {
		t.Fatalf("objective %v, want ≈ 0", sol.Objective)
	}
}

func TestSolveWithOneSidedBounds(t *testing.T) {
	// min x₁ + x₂ s.t. x₁ − x₂ = 0, x ≥ 0.1 (upper side unbounded):
	// OPT = 0.2 at (0.1, 0.1)... x₂ enters with coefficient −1.
	prob := &Problem{
		A: linalg.NewCSR(2, 1, []linalg.Triple{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: -1}}),
		B: []float64{0},
		C: []float64{1, 1},
		L: []float64{0.1, 0.1},
		U: []float64{math.Inf(1), math.Inf(1)},
	}
	sol, err := solveFresh(prob, []float64{1, 1}, 0.02, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-0.2) > 0.05 {
		t.Fatalf("objective %v, want 0.2", sol.Objective)
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	prob, x0 := simplexProblem([]float64{1, 2, 3})
	sess, err := NewSession(prob)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Solve(ctx, x0, 0, Params{}); err == nil {
		t.Error("eps = 0 accepted")
	}
	if _, err := sess.Solve(ctx, []float64{1, 0, 0}, 0.1, Params{}); err == nil {
		t.Error("boundary x0 accepted")
	}
	bad := linalg.Constant(3, 0.5) // violates Σx = 1
	if _, err := sess.Solve(ctx, bad, 0.1, Params{}); err == nil {
		t.Error("infeasible x0 accepted")
	}
	if _, err := sess.Solve(ctx, []float64{0.3, 0.3}, 0.1, Params{}); err == nil {
		t.Error("wrong-length x0 accepted")
	}
}

// A Session reads L and U at every Solve/Polish: bounds rewritten in place
// on a live session solve bit-identically to a fresh session over the
// same numbers, and a rewrite that empties a domain fails both entry
// points with NewBarriers' error before any iterate is computed.
func TestSessionReadsBoundsInPlace(t *testing.T) {
	ctx := context.Background()
	for _, backend := range []string{"dense", "csr-pcg"} {
		t.Run(backend, func(t *testing.T) {
			prob, x0 := blockSimplexProblem(3, backend)
			sess, err := NewSession(prob)
			if err != nil {
				t.Fatal(err)
			}
			before, err := sess.Solve(ctx, x0, 0.1, Params{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range prob.U {
				prob.U[i] = 2 + float64(i%3)
			}
			got, err := sess.Solve(ctx, x0, 0.1, Params{})
			if err != nil {
				t.Fatal(err)
			}
			fresh := *prob
			fresh.L, fresh.U = slices.Clone(prob.L), slices.Clone(prob.U)
			want, err := solveFresh(&fresh, x0, 0.1, Params{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.X, want.X) || !slices.Equal(got.Weights, want.Weights) ||
				math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
				got.PathSteps != want.PathSteps || got.Centerings != want.Centerings ||
				got.CGIterations != want.CGIterations {
				t.Fatalf("rewritten bounds: %d steps, %d centerings, %d CG, objective %v; fresh session: %d, %d, %d, %v (or X/Weights differ)",
					got.PathSteps, got.Centerings, got.CGIterations, got.Objective,
					want.PathSteps, want.Centerings, want.CGIterations, want.Objective)
			}

			prob.U[0] = prob.L[0]
			_, wantErr := NewBarriers(prob.L, prob.U)
			if wantErr == nil {
				t.Fatal("NewBarriers accepted an empty domain")
			}
			if sol, err := sess.Solve(ctx, x0, 0.1, Params{}); sol != nil || err == nil || err.Error() != wantErr.Error() {
				t.Errorf("Solve on an emptied domain: solution %v, err %v; want nil and %q", sol != nil, err, wantErr)
			}
			if sol, err := sess.Polish(ctx, before.X, before.Weights, 0.1, Params{}); sol != nil || err == nil || err.Error() != wantErr.Error() {
				t.Errorf("Polish on an emptied domain: solution %v, err %v; want nil and %q", sol != nil, err, wantErr)
			}
		})
	}
}

func TestPathStepsScaleWithSqrtN(t *testing.T) {
	// Theorem 1.4's headline: path steps grow like √n (here n is the
	// constraint count, 1 for the simplex — instead scale the α the solver
	// derives from n by constructing block problems with growing n).
	steps := func(n int) int {
		prob, x0 := blockSimplexProblem(n, "")
		sol, err := solveFresh(prob, x0, 0.1, Params{})
		if err != nil {
			t.Fatal(err)
		}
		// Sanity: per-block optimum is 1.
		if sol.Objective > float64(n)+0.5*float64(n) {
			t.Fatalf("n=%d objective %v too far above OPT %d", n, sol.Objective, n)
		}
		return sol.PathSteps
	}
	s1, s9 := steps(1), steps(9)
	if s9 <= s1 {
		t.Fatalf("path steps did not grow with n: %d vs %d", s1, s9)
	}
	// √9 = 3× plus log factors; must stay well below linear 9×.
	if float64(s9) > 7*float64(s1) {
		t.Fatalf("path-step growth looks linear: %d -> %d", s1, s9)
	}
}

// Algorithm 10 as written: one CenteringInexact per path step, plus
// finalCenterings at the end of each of the two phases; Polish runs only
// its finalCenterings and never consults Params.Stop.
func TestCenteringsPerPathStep(t *testing.T) {
	prob, x0 := simplexProblem([]float64{3, 1, 4, 1.5, 5})
	sess, err := NewSession(prob)
	if err != nil {
		t.Fatal(err)
	}
	var par Params
	const final = finalCenterings
	sol, err := sess.Solve(context.Background(), x0, 0.05, par)
	if err != nil {
		t.Fatal(err)
	}
	if want := sol.PathSteps + 2*final; sol.Centerings != want {
		t.Fatalf("Solve: %d centerings over %d path steps, want %d", sol.Centerings, sol.PathSteps, want)
	}
	par.Stop = func([]float64) bool {
		t.Fatal("Polish called Stop")
		return true
	}
	pol, err := sess.Polish(context.Background(), sol.X, sol.Weights, 0.05, par)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Centerings != final || pol.PathSteps != 0 {
		t.Fatalf("Polish: %d centerings, %d path steps; want %d, 0", pol.Centerings, pol.PathSteps, final)
	}
}

// blockSimplexProblem is n independent simplex blocks of 3 variables
// (Aᵀx = 1 per block, 0 ≤ x ≤ 1) on the named backend, started at the
// block centres.
func blockSimplexProblem(n int, backend string) (*Problem, []float64) {
	m := 3 * n
	var ts []linalg.Triple
	c := make([]float64, m)
	for blk := 0; blk < n; blk++ {
		for j := 0; j < 3; j++ {
			row := 3*blk + j
			ts = append(ts, linalg.Triple{Row: row, Col: blk, Val: 1})
			c[row] = float64(j + 1)
		}
	}
	prob := &Problem{
		A: linalg.NewCSR(m, n, ts), B: linalg.Ones(n), C: c,
		L: make([]float64, m), U: linalg.Ones(m), Backend: backend,
	}
	return prob, linalg.Constant(m, 1.0/3)
}

// stopRun is one Solve with a Stop hook that records, per call, the
// phase Progress last reported, and returns true at its k-th call (never
// when k is 0).
type stopRun struct {
	sol                *Solution
	phase1Steps, calls int
	badPhase           int       // a phase other than 2 seen at a Stop call, or 0
	stopX              []float64 // the iterate Stop accepted
}

func solveWithStop(t *testing.T, backend string, k int) *stopRun {
	t.Helper()
	prob, x0 := blockSimplexProblem(3, backend)
	run := &stopRun{}
	phase := 0
	par := Params{Progress: func(p, _ int, _ float64) {
		phase = p
		if p == 1 {
			run.phase1Steps++
		}
	}}
	par.Stop = func(x []float64) bool {
		run.calls++
		if phase != 2 {
			run.badPhase = phase
		}
		if run.calls == k {
			run.stopX = linalg.Clone(x)
			return true
		}
		return false
	}
	sol, err := solveFresh(prob, x0, 0.1, par)
	if err != nil {
		t.Fatalf("%s: %v", backend, err)
	}
	run.sol = sol
	return run
}

// Params.Stop: a Stop that never fires leaves the solve bit-identical to
// a nil one; one that fires at phase-2 step k ends the solve there with
// that iterate and no final centerings; phase 1 never consults it.
func TestStopEndsPhaseTwo(t *testing.T) {
	for _, backend := range []string{"dense", "csr-pcg"} {
		t.Run(backend, func(t *testing.T) {
			prob, x0 := blockSimplexProblem(3, backend)
			ref, err := solveFresh(prob, x0, 0.1, Params{})
			if err != nil {
				t.Fatal(err)
			}
			if backend == "csr-pcg" && ref.CGIterations == 0 {
				t.Fatal("csr-pcg counted no CG iterations")
			}
			never := solveWithStop(t, backend, 0)
			got := never.sol
			if !slices.Equal(got.X, ref.X) || !slices.Equal(got.Weights, ref.Weights) ||
				got.PathSteps != ref.PathSteps || got.Centerings != ref.Centerings ||
				got.CGIterations != ref.CGIterations {
				t.Fatalf("never-firing Stop: %d steps, %d centerings, %d CG; nil Stop: %d, %d, %d (or X/Weights differ)",
					got.PathSteps, got.Centerings, got.CGIterations, ref.PathSteps, ref.Centerings, ref.CGIterations)
			}
			phase2 := ref.PathSteps - never.phase1Steps
			if never.calls != phase2 || never.badPhase != 0 {
				t.Fatalf("Stop called %d times (once in phase %d); want once per phase-2 step, %d", never.calls, never.badPhase, phase2)
			}

			const k = 7
			early := solveWithStop(t, backend, k)
			if want := early.phase1Steps + k; early.sol.PathSteps != want {
				t.Fatalf("Stop at phase-2 step %d: %d path steps, want %d", k, early.sol.PathSteps, want)
			}
			// Phase 1 keeps its final centerings; phase 2 has none left.
			if want := early.sol.PathSteps + finalCenterings; early.sol.Centerings != want {
				t.Fatalf("Stop at phase-2 step %d: %d centerings, want %d", k, early.sol.Centerings, want)
			}
			if early.calls != k || early.badPhase != 0 {
				t.Fatalf("Stop called %d times (once in phase %d), want %d in phase 2", early.calls, early.badPhase, k)
			}
			if !slices.Equal(early.sol.X, early.stopX) {
				t.Fatal("the solve did not return the iterate Stop accepted")
			}
		})
	}
}
