package lapsolver

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bcclap/internal/graph"
	"bcclap/internal/linalg"
	"bcclap/internal/sparsify"
)

// laplacianGolden pins the bits of every Laplacian solve path: the
// Theorem 1.3 solver (whose preprocessing runs PencilBounds and so
// CGLaplacian), SolveExact, the Gremban SDD solve of e10's matrices and
// sparsify.Quality. testdata/generate.txt says how it was recorded.
const laplacianGolden = "laplacian.golden"

// hashBits is the FNV-1a hash of the IEEE-754 bits of xs.
func hashBits(xs ...float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		b := math.Float64bits(x)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// e10System builds e10's n×n SDD system: a random connected Laplacian
// plus a positive diagonal, and a Gaussian right-hand side.
func e10System(n int) (*linalg.Dense, []float64) {
	rnd := rand.New(rand.NewSource(int64(n)))
	m := graph.RandomConnected(n, 0.4, 3, rnd).Laplacian().Dense()
	for i := 0; i < n; i++ {
		m.Inc(i, i, 0.5+rnd.Float64())
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = rnd.NormFloat64()
	}
	return m, y
}

// laplacianPaths runs each pinned solve and prints one line per result.
func laplacianPaths(t *testing.T) string {
	ctx := context.Background()
	var out strings.Builder
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid5x5", graph.Grid(5, 5)},
		{"random30", graph.RandomConnected(30, 0.2, 5, rand.New(rand.NewSource(1)))},
		{"path20", graph.Path(20)},
	}
	for _, c := range graphs {
		s, err := New(c.g, Config{Rand: rand.New(rand.NewSource(7))})
		if err != nil {
			t.Fatal(err)
		}
		b := randB(c.g.N(), rand.New(rand.NewSource(2)))
		for _, eps := range []float64{1e-2, 1e-8} {
			y, st, err := s.SolveCtx(ctx, b, eps)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "solve %s eps=%g iters=%d resid=%016x y=%016x\n",
				c.name, eps, st.Iterations, hashBits(st.ResidualNorm), hashBits(y...))
		}
		x, err := SolveExact(c.g, b)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "exact %s x=%016x\n", c.name, hashBits(x...))
	}
	// e10's SDD matrices, solved through the Gremban reduction.
	var sdd SDDSolver
	for _, n := range []int{8, 16, 32} {
		m, y := e10System(n)
		x, iters, err := sdd.Solve(ctx, m, y)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "sdd n=%d iters=%d x=%016x\n", n, iters, hashBits(x...))
	}
	// e11's sparsifiers and their measured pencil band.
	g := graph.RandomConnected(28, 0.6, 2, rand.New(rand.NewSource(11)))
	for _, tt := range []int{1, 2, 4, 8} {
		res := sparsify.Adhoc(g, sparsify.Params{K: 4, T: tt, Iterations: 6}, rand.New(rand.NewSource(int64(tt))), nil)
		lo, hi := sparsify.Quality(g, res.H, 5, rand.New(rand.NewSource(7)))
		fmt.Fprintf(&out, "quality t=%d lo=%016x hi=%016x\n", tt, hashBits(lo), hashBits(hi))
	}
	return out.String()
}

// TestLaplacianGolden fails when any pinned Laplacian solve changes a bit.
func TestLaplacianGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", laplacianGolden))
	if err != nil {
		t.Fatal(err)
	}
	if got := laplacianPaths(t); got != string(want) {
		t.Fatalf("Laplacian solves moved from testdata/%s.\ngot:\n%swant:\n%s", laplacianGolden, got, want)
	}
}

// A reused SDDSolver refills its edge list and workspace in place, so
// after solves of other sizes it must still answer bit for bit as a fresh
// solver does, in both the solution and the CG iteration count.
func TestSDDSolverReuseBitIdentical(t *testing.T) {
	ctx := context.Background()
	var reused SDDSolver
	for _, n := range []int{8, 32, 16, 32} {
		m, y := e10System(n)
		got, gotIters, err := reused.Solve(ctx, m, y)
		if err != nil {
			t.Fatal(err)
		}
		var fresh SDDSolver
		want, wantIters, err := fresh.Solve(ctx, m, y)
		if err != nil {
			t.Fatal(err)
		}
		if gotIters != wantIters {
			t.Fatalf("n=%d: reused solver took %d CG iterations, fresh %d", n, gotIters, wantIters)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: x[%d] = %v reused, %v fresh", n, i, got[i], want[i])
			}
		}
	}
}
