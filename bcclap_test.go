package bcclap

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"bcclap/internal/graph"
	"bcclap/internal/linalg"
	"bcclap/internal/sim"
	"bcclap/internal/sparsify"
)

var sparsifyParamsForTest = sparsify.Params{K: 4, T: 2, Iterations: 6}

func TestPublicSparsify(t *testing.T) {
	g := graph.Complete(24)
	net, err := NewBCCNetwork(g.N())
	if err != nil {
		t.Fatal(err)
	}
	// K24 is small enough that the default practical bundle covers the
	// whole graph; force compression for this test.
	res, err := SparsifyGraph(g, 0.5, WithSeed(1), WithNetwork(net), WithSparsifyParams(sparsifyParamsForTest))
	if err != nil {
		t.Fatal(err)
	}
	if res.H.M() >= g.M() {
		t.Fatalf("no compression: %d of %d", res.H.M(), g.M())
	}
	if res.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
	lo, hi := SparsifierQuality(g, res.H, 2)
	if lo <= 0 || hi <= 0 || hi < lo {
		t.Fatalf("nonsensical quality band [%v, %v]", lo, hi)
	}
}

func TestPublicSparsifyValidation(t *testing.T) {
	g := graph.Path(4)
	if _, err := SparsifyGraph(g, 0); err == nil {
		t.Fatal("eps = 0 accepted")
	}
}

// A WithNetwork ledger must have the graph's vertex count: every entry
// point rejects a smaller or larger one before charging anything.
func TestWithNetworkSizeMustMatchGraph(t *testing.T) {
	g := graph.Grid(4, 5)
	d := testFlowNetwork(5, 37)
	for _, delta := range []int{-1, 1} {
		gNet, err := NewBCCNetwork(g.N() + delta)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SparsifyGraph(g, 0.5, WithNetwork(gNet)); err == nil {
			t.Errorf("SparsifyGraph accepted a %d-vertex ledger on %d vertices", gNet.N(), g.N())
		}
		if _, err := NewLaplacianSession(g, WithNetwork(gNet)); err == nil {
			t.Errorf("NewLaplacianSession accepted a %d-vertex ledger on %d vertices", gNet.N(), g.N())
		}
		if gNet.Stats() != (sim.Stats{}) {
			t.Errorf("rejected ledger charged %+v", gNet.Stats())
		}
		dNet, err := NewBCCNetwork(d.N() + delta)
		if err != nil {
			t.Fatal(err)
		}
		if fs, err := NewFlowSolver(d, WithNetwork(dNet)); err == nil {
			fs.Close()
			t.Errorf("NewFlowSolver accepted a %d-vertex ledger on %d vertices", dNet.N(), d.N())
		}
	}
}

func TestPublicLaplacianSolver(t *testing.T) {
	g := graph.Grid(4, 5)
	net, err := NewBCCNetwork(g.N())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewLaplacianSession(g, WithSeed(5), WithNetwork(net))
	if err != nil {
		t.Fatal(err)
	}
	if s.PreprocessRounds() == 0 {
		t.Fatal("no preprocessing rounds")
	}
	rnd := rand.New(rand.NewSource(2))
	b := make([]float64, g.N())
	for i := range b {
		b[i] = rnd.NormFloat64()
	}
	b = linalg.ProjectOutOnes(b)
	y, st, err := s.SolveCtx(context.Background(), b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	l := g.Laplacian()
	if r := linalg.Norm2(linalg.Sub(l.MulVec(y), b)) / linalg.Norm2(b); r > 1e-4 {
		t.Fatalf("relative residual %g", r)
	}
	if st.CGIterations == 0 || st.Rounds == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestPublicSolveLP(t *testing.T) {
	// min 2x₁ + x₂ s.t. x₁ + x₂ = 1, 0 ≤ x ≤ 1 → OPT = 1 at (0, 1).
	prob := &LPProblem{
		A: linalg.NewCSR(2, 1, []linalg.Triple{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 1}}),
		B: []float64{1},
		C: []float64{2, 1},
		L: []float64{0, 0},
		U: []float64{1, 1},
	}
	l, err := NewLPSolver(prob, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := l.Solve(context.Background(), []float64{0.5, 0.5}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-1) > 0.05 {
		t.Fatalf("objective %v, want 1", sol.Objective)
	}
}

func TestPublicFlowSolverMatchesBaselines(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	d := graph.RandomFlowNetwork(6, 0.3, 3, 3, rnd)
	want, wantCost, _, err := MinCostMaxFlowBaseline(d, 0, d.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solveOnce(d, 0, d.N()-1, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want || res.Cost != wantCost {
		t.Fatalf("LP pipeline (%d, %d) vs baseline (%d, %d)", res.Value, res.Cost, want, wantCost)
	}
	if res.Stats.PathSteps == 0 {
		t.Fatal("no path steps recorded")
	}
	vMax, _, err := MaxFlow(d, 0, d.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	if vMax != res.Value {
		t.Fatalf("Dinic %d vs LP %d", vMax, res.Value)
	}
}
