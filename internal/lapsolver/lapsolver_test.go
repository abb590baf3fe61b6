package lapsolver

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"bcclap/internal/graph"
	"bcclap/internal/linalg"
	"bcclap/internal/sim"
	"bcclap/internal/sparsify"
)

func randB(n int, rnd *rand.Rand) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = rnd.NormFloat64()
	}
	return linalg.ProjectOutOnes(b)
}

func TestSolveMeetsEpsilonGuarantee(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	graphs := []*graph.Graph{
		graph.Grid(5, 5),
		graph.RandomConnected(30, 0.2, 5, rnd),
		graph.Barbell(8),
	}
	for gi, g := range graphs {
		s, err := New(g, Config{Rand: rand.New(rand.NewSource(int64(gi)))})
		if err != nil {
			t.Fatal(err)
		}
		b := randB(g.N(), rnd)
		want, err := SolveExact(g, b)
		if err != nil {
			t.Fatal(err)
		}
		normX := math.Sqrt(linalg.LaplacianQuadForm(g.WEdges(), want))
		for _, eps := range []float64{0.5, 1e-2, 1e-6} {
			got, _, err := s.SolveCtx(context.Background(), b, eps)
			if err != nil {
				t.Fatal(err)
			}
			if e := ErrorInLNorm(g, want, got); e > eps*normX*1.5 {
				t.Fatalf("graph %d eps %g: error %g > %g", gi, eps, e, eps*normX)
			}
		}
	}
}

func TestIterationsScaleWithLogEps(t *testing.T) {
	g := graph.Grid(4, 6)
	s, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b := randB(g.N(), rand.New(rand.NewSource(2)))
	_, st1, err := s.SolveCtx(context.Background(), b, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	_, st2, err := s.SolveCtx(context.Background(), b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Iterations <= st1.Iterations {
		t.Fatalf("iterations did not grow with precision: %d vs %d", st1.Iterations, st2.Iterations)
	}
	// O(√κ log(1/ε)) with κ=3: the ratio of iteration counts should be
	// roughly log(1e8)/log(1e2) = 4, certainly below 8.
	if float64(st2.Iterations) > 8*float64(st1.Iterations) {
		t.Fatalf("iteration growth %d -> %d superlogarithmic", st1.Iterations, st2.Iterations)
	}
}

func TestPreprocessingVsPerInstanceRounds(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	g := graph.RandomConnected(20, 0.3, 3, rnd)
	net, err := sim.NewNetwork(g.N())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, Config{Rand: rnd, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if s.PreprocessRounds <= 0 {
		t.Fatal("no preprocessing rounds recorded")
	}
	b := randB(g.N(), rnd)
	_, st, err := s.SolveCtx(context.Background(), b, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds <= 0 {
		t.Fatal("no per-instance rounds recorded")
	}
	// Theorem 1.3's point: per-instance cost is much smaller than
	// preprocessing.
	if st.Rounds >= s.PreprocessRounds {
		t.Fatalf("instance rounds %d not below preprocessing %d", st.Rounds, s.PreprocessRounds)
	}
	if s.PreprocessRounds != 1015 || st.Rounds != 57 {
		t.Fatalf("rounds: preprocessing %d, instance %d", s.PreprocessRounds, st.Rounds)
	}
	if got, want := net.Stats(), (sim.Stats{Rounds: 1072, Messages: 2196, Bits: 41777}); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	g := graph.Path(4)
	s, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SolveCtx(context.Background(), []float64{1, 2}, 0.1); err == nil {
		t.Error("wrong-length b accepted")
	}
	if _, _, err := s.SolveCtx(context.Background(), make([]float64, 4), 0.9); err == nil {
		t.Error("eps > 1/2 accepted")
	}
	if _, _, err := s.SolveCtx(context.Background(), make([]float64, 4), 0); err == nil {
		t.Error("eps = 0 accepted")
	}
}

func TestNewRejectsDisconnected(t *testing.T) {
	g := graph.New(4)
	if _, err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := New(g, Config{}); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestSolverWithExplicitSparsifyParams(t *testing.T) {
	g := graph.Complete(20)
	s, err := New(g, Config{
		Sparsify: sparsify.Params{K: 3, T: 2, Iterations: 4},
		Rand:     rand.New(rand.NewSource(9)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Sparsifier().M() >= g.M() {
		t.Log("sparsifier did not compress (allowed, but unexpected on K20)")
	}
	b := randB(g.N(), rand.New(rand.NewSource(10)))
	want, err := SolveExact(g, b)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.SolveCtx(context.Background(), b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	normX := math.Sqrt(linalg.LaplacianQuadForm(g.WEdges(), want))
	if e := ErrorInLNorm(g, want, got); e > 1e-5*normX {
		t.Fatalf("error %g", e)
	}
}

func TestGrembanLaplacianStructure(t *testing.T) {
	// M = Laplacian of a triangle + diag(1, 2, 3) — SDD with excess.
	lap := linalg.LaplacianCSR(3, []linalg.WEdge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3}}).Dense()
	for i := 0; i < 3; i++ {
		lap.Inc(i, i, float64(i+1))
	}
	edges, err := appendGrembanEdges(nil, lap)
	if err != nil {
		t.Fatal(err)
	}
	// 3 original edges duplicated + 3 mirror ties = 9 edges.
	if len(edges) != 9 {
		t.Fatalf("got %d reduction edges, want 9", len(edges))
	}
	l := linalg.LaplacianCSR(6, edges)
	if nrm := linalg.Norm2(l.MulVec(linalg.Ones(6))); nrm > 1e-10 {
		t.Fatalf("reduction is not a Laplacian: L·1 = %g", nrm)
	}
}

func TestGrembanRejectsNonSDD(t *testing.T) {
	m := linalg.NewDenseFromRows([][]float64{{1, 0.5}, {0.5, 1}})
	if _, err := appendGrembanEdges(nil, m); err == nil {
		t.Fatal("positive off-diagonal accepted")
	}
	m2 := linalg.NewDenseFromRows([][]float64{{1, -2}, {-2, 1}})
	if _, err := appendGrembanEdges(nil, m2); err == nil {
		t.Fatal("non-dominant matrix accepted")
	}
}

func TestSDDSolveMatchesDense(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	var sdd SDDSolver // one value across trials of different sizes
	for trial := 0; trial < 8; trial++ {
		n := 3 + rnd.Intn(8)
		// Random SDD: Laplacian of a random connected graph + positive diag.
		g := graph.RandomConnected(n, 0.5, 3, rnd)
		m := g.Laplacian().Dense()
		for i := 0; i < n; i++ {
			m.Inc(i, i, 0.1+rnd.Float64())
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rnd.NormFloat64()
		}
		y := m.MulVec(want)
		got, _, err := sdd.Solve(context.Background(), m, y)
		if err != nil {
			t.Fatal(err)
		}
		if d := linalg.Norm2(linalg.Sub(got, want)); d > 1e-6*(1+linalg.Norm2(want)) {
			t.Fatalf("trial %d: error %g", trial, d)
		}
	}
}

// A canceled context must abort a Laplacian solve with an error satisfying
// errors.Is(err, context.Canceled), and the solver must stay usable.
func TestSolveCtxCancellation(t *testing.T) {
	g := graph.Grid(5, 5)
	s, err := New(g, Config{Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.N())
	rnd := rand.New(rand.NewSource(4))
	for i := range b {
		b[i] = rnd.NormFloat64()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.SolveCtx(ctx, b, 1e-6); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled solve returned %v", err)
	}
	// The same solver must still answer fresh instances correctly.
	y, st, err := s.SolveCtx(context.Background(), b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations == 0 || len(y) != g.N() {
		t.Fatalf("post-cancel solve broken: %+v", st)
	}
}
