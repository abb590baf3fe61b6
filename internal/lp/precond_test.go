package lp

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"bcclap/internal/linalg"
)

// incidenceCSR builds a flow-LP-shaped constraint matrix over an explicit
// arc list: one ±1 incidence row per arc plus one identity row per vertex
// (the diagonal block the y/z slack rows of the Section 5 formulation
// contribute).
func incidenceCSR(n int, arcs [][2]int) *linalg.CSR {
	var ts []linalg.Triple
	row := 0
	for _, a := range arcs {
		ts = append(ts,
			linalg.Triple{Row: row, Col: a[0], Val: -1},
			linalg.Triple{Row: row, Col: a[1], Val: 1},
		)
		row++
	}
	for v := 0; v < n; v++ {
		ts = append(ts, linalg.Triple{Row: row, Col: v, Val: 1})
		row++
	}
	return linalg.NewCSR(row, n, ts)
}

func pathArcs(n int) (arcs [][2]int) {
	for v := 0; v+1 < n; v++ {
		arcs = append(arcs, [2]int{v, v + 1})
	}
	return arcs
}

func gridArcs(rows, cols int) (arcs [][2]int) {
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				arcs = append(arcs, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				arcs = append(arcs, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	return arcs
}

func randomArcs(n, m int, rnd *rand.Rand) (arcs [][2]int) {
	for v := 1; v < n; v++ {
		arcs = append(arcs, [2]int{rnd.Intn(v), v})
	}
	for len(arcs) < m {
		u, v := rnd.Intn(n), rnd.Intn(n)
		if u != v {
			arcs = append(arcs, [2]int{u, v})
		}
	}
	return arcs
}

// The csr-pcg backend must agree with the dense reference within the IPM's
// certificate tolerance on the graph families the flow pipeline produces —
// including the barrier-diagonal spreads of a real interior-point run,
// where entries span many orders of magnitude.
func TestCSRPCGAgreesWithDense(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	cases := map[string]*linalg.CSR{
		"path":   incidenceCSR(16, pathArcs(16)),
		"grid":   incidenceCSR(20, gridArcs(4, 5)),
		"random": incidenceCSR(18, randomArcs(18, 40, rnd)),
	}
	for name, a := range cases {
		ref, _, err := NewBackendSolverStats("dense", a)
		if err != nil {
			t.Fatal(err)
		}
		pcg, _, err := NewBackendSolverStats("csr-pcg", a)
		if err != nil {
			t.Fatal(err)
		}
		m, n := a.Rows(), a.Cols()
		for rep := 0; rep < 4; rep++ {
			d := make([]float64, m)
			for i := range d {
				// IPM-like spread: weights across ~8 orders of magnitude.
				d[i] = 1e-4 * (1 + 1e8*rnd.Float64()*rnd.Float64()*rnd.Float64())
			}
			y := make([]float64, n)
			for i := range y {
				y[i] = rnd.NormFloat64()
			}
			want, _, err := ref(context.Background(), d, y)
			if err != nil {
				t.Fatalf("%s rep %d dense: %v", name, rep, err)
			}
			got, _, err := pcg(context.Background(), d, y)
			if err != nil {
				t.Fatalf("%s rep %d csr-pcg: %v", name, rep, err)
			}
			if diff := linalg.Norm2(linalg.Sub(got, want)) / (1 + linalg.Norm2(want)); diff > 1e-5 {
				t.Fatalf("%s rep %d: csr-pcg deviates from dense by %g", name, rep, diff)
			}
		}
	}
}

// A matrix with a row of three nonzeros is not incidence-structured: the
// backend must fall back to the edgeless forest (Jacobi), count no build,
// and still solve correctly — also when every other row is an arc.
func TestCSRPCGNonIncidenceFallback(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	n := 10
	var ts []linalg.Triple
	row := 0
	for r := 0; r < 20; r++ {
		for k := 0; k < 3; k++ {
			ts = append(ts, linalg.Triple{Row: row, Col: rnd.Intn(n), Val: rnd.NormFloat64()})
		}
		row++
	}
	for v := 0; v < n; v++ {
		ts = append(ts, linalg.Triple{Row: row, Col: v, Val: 1})
		row++
	}
	a := linalg.NewCSR(row, n, ts)
	ref, _, err := NewBackendSolverStats("dense", a)
	if err != nil {
		t.Fatal(err)
	}
	pcg, stats, err := NewBackendSolverStats("csr-pcg", a)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Builds != 0 {
		t.Fatalf("Builds = %d on a non-incidence matrix, want 0 (edgeless forest)", stats.Builds)
	}
	d := make([]float64, a.Rows())
	for i := range d {
		d[i] = 0.1 + rnd.Float64()
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = rnd.NormFloat64()
	}
	want, _, err := ref(context.Background(), d, y)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := pcg(context.Background(), d, y)
	if err != nil {
		t.Fatal(err)
	}
	if diff := linalg.Norm2(linalg.Sub(got, want)) / (1 + linalg.Norm2(want)); diff > 1e-5 {
		t.Fatalf("fallback deviates from dense by %g", diff)
	}

	// A path's arcs plus one row with three nonzeros.
	ts = ts[:0]
	for i, arc := range pathArcs(n) {
		ts = append(ts, linalg.Triple{Row: i, Col: arc[0], Val: -1}, linalg.Triple{Row: i, Col: arc[1], Val: 1})
	}
	for k := 0; k < 3; k++ {
		ts = append(ts, linalg.Triple{Row: n - 1, Col: 2 * k, Val: 1})
	}
	a = linalg.NewCSR(n, n, ts)
	st, incidence, err := buildPCGStructure(a)
	if err != nil {
		t.Fatal(err)
	}
	if incidence || len(st.off) != 0 || len(st.offRow) != 0 {
		t.Fatalf("one 3-nonzero row: incidence %v, %d forest edges; want the edgeless forest", incidence, len(st.off))
	}
	if _, stats, err = NewBackendSolverStats("csr-pcg", a); err != nil {
		t.Fatal(err)
	}
	if stats.Builds != 0 {
		t.Fatalf("one 3-nonzero row: Builds = %d, want 0", stats.Builds)
	}
}

// The forest is a maximum-multiplicity spanning forest: a pair carrying
// three parallel arcs is a forest edge even where it closes a cycle of
// single arcs that (u, v) order would have taken first, the forest has
// n − components edges, and two builds lay it out identically.
func TestCSRPCGForestPrefersParallelPairs(t *testing.T) {
	// Component {0,1,2,3}: the 4-cycle 0-1-2-3-0 with (2,3) tripled
	// (rows 2, 4 and 5); component {4,5}; vertex 6 alone.
	arcs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 2}, {2, 3}, {4, 5}}
	n, components := 7, 3
	a := incidenceCSR(n, arcs)
	st, incidence, err := buildPCGStructure(a)
	if err != nil {
		t.Fatal(err)
	}
	if !incidence {
		t.Fatal("incidence matrix classified as non-incidence")
	}
	if got := len(st.off); got != n-components {
		t.Fatalf("forest has %d edges, want n − components = %d", got, n-components)
	}
	tripled := false
	for e := range st.off {
		if slices.Equal(st.offRow[st.offPtr[e]:st.offPtr[e+1]], []int{2, 4, 5}) {
			tripled = true
		}
	}
	if !tripled {
		t.Fatalf("the tripled pair (2,3) is no forest edge: offPtr %v offRow %v", st.offPtr, st.offRow)
	}
	again, _, err := buildPCGStructure(a)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(st.offPtr, again.offPtr) || !slices.Equal(st.offRow, again.offRow) || !slices.Equal(st.offCoef, again.offCoef) {
		t.Fatalf("two builds differ: offPtr %v/%v offRow %v/%v offCoef %v/%v",
			st.offPtr, again.offPtr, st.offRow, again.offRow, st.offCoef, again.offCoef)
	}
}

// The symbolic structure is built once per backend instance and only
// numerically refreshed, once per solve, across reweights.
func TestCSRPCGSymbolicReuse(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	a := incidenceCSR(16, pathArcs(16))
	solve, stats, err := NewBackendSolverStats("csr-pcg", a)
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil {
		t.Fatal("csr-pcg reports no PrecondStats")
	}
	if stats.Builds != 1 {
		t.Fatalf("Builds = %d after construction, want 1", stats.Builds)
	}
	m, n := a.Rows(), a.Cols()
	d := make([]float64, m)
	for i := range d {
		d[i] = 0.1 + rnd.Float64()
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = rnd.NormFloat64()
	}
	for rep := 1; rep <= 3; rep++ {
		d[0] *= 2
		if _, _, err := solve(context.Background(), d, y); err != nil {
			t.Fatal(err)
		}
		if stats.Refreshes != rep {
			t.Fatalf("Refreshes = %d after %d solves, want %d", stats.Refreshes, rep, rep)
		}
	}
	if stats.Builds != 1 {
		t.Fatalf("Builds = %d after reweights, want 1 (symbolic structure must be reused)", stats.Builds)
	}
}

// Refreshing across reweights must be equivalent to a from-scratch build:
// a fresh backend instance fed the same diagonal must produce bit-identical
// solutions to one that lived through other diagonals first.
func TestCSRPCGRefreshEquivalentToRebuild(t *testing.T) {
	rnd := rand.New(rand.NewSource(14))
	a := incidenceCSR(14, randomArcs(14, 30, rnd))
	lived, _, err := NewBackendSolverStats("csr-pcg", a)
	if err != nil {
		t.Fatal(err)
	}
	m, n := a.Rows(), a.Cols()
	y := make([]float64, n)
	for i := range y {
		y[i] = rnd.NormFloat64()
	}
	draw := func(seed int64) []float64 {
		r := rand.New(rand.NewSource(seed))
		d := make([]float64, m)
		for i := range d {
			d[i] = 0.05 + r.Float64()
		}
		return d
	}
	// Walk the lived instance through several reweights.
	for seed := int64(1); seed <= 4; seed++ {
		if _, _, err := lived(context.Background(), draw(seed), y); err != nil {
			t.Fatal(err)
		}
	}
	final := draw(5)
	got, _, err := lived(context.Background(), final, y)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := NewBackendSolverStats("csr-pcg", a)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fresh(context.Background(), final, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: lived %v vs fresh %v (refresh not equivalent to rebuild)", i, got[i], want[i])
		}
	}
}

// The preconditioner must actually earn its keep: on a weighted path LP
// (condition number Θ(n²)) csr-pcg needs strictly fewer CG iterations than
// the same CG on the edgeless forest (its non-incidence fallback, i.e.
// Jacobi) for the same right-hand side and tolerance.
func TestCSRPCGFewerIterationsThanEdgelessForest(t *testing.T) {
	rnd := rand.New(rand.NewSource(15))
	a := incidenceCSR(64, pathArcs(64))
	edgeless, err := forestStructure(a.Cols(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cg := matrixFreeSolve(a, edgeless, &PrecondStats{})
	pcg, _, err := NewBackendSolverStats("csr-pcg", a)
	if err != nil {
		t.Fatal(err)
	}
	m, n := a.Rows(), a.Cols()
	d := make([]float64, m)
	for i := range d {
		d[i] = 0.5 + rnd.Float64()
		if i >= m-n {
			d[i] *= 1e-6 // weak diagonal rows: the path coupling dominates
		}
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = rnd.NormFloat64()
	}
	_, plain, err := cg(context.Background(), d, y)
	if err != nil {
		t.Fatal(err)
	}
	_, pre, err := pcg(context.Background(), d, y)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("csr-pcg took %d iterations, the edgeless forest %d", pre, plain)
	if pre >= plain {
		t.Fatalf("csr-pcg took %d iterations, the edgeless forest %d — no reduction", pre, plain)
	}
}

// PrecondRefreshes counts one solve's refactorizations, not the session's:
// re-running an identical solve on the same session reports the same
// count again, while PrecondBuilds stays session-lifetime.
func TestSolutionPrecondRefreshesPerSolve(t *testing.T) {
	prob, x0 := simplexProblem([]float64{3, 1, 4, 1.5, 5})
	prob.Backend = "csr-pcg"
	sess, err := NewSession(prob)
	if err != nil {
		t.Fatal(err)
	}
	var first *Solution
	for q := 0; q < 3; q++ {
		sol, err := sess.Solve(context.Background(), x0, 0.05, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.PrecondRefreshes <= 0 {
			t.Fatalf("solve %d: PrecondRefreshes = %d, want > 0", q, sol.PrecondRefreshes)
		}
		if first == nil {
			first = sol
			continue
		}
		if sol.PrecondRefreshes != first.PrecondRefreshes || sol.PrecondBuilds != first.PrecondBuilds {
			t.Fatalf("solve %d: (builds, refreshes) = (%d, %d), first solve (%d, %d)",
				q, sol.PrecondBuilds, sol.PrecondRefreshes, first.PrecondBuilds, first.PrecondRefreshes)
		}
	}
}
