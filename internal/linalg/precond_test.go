package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomForest draws a random spanning tree on n vertices (every vertex v
// attaches to a uniform earlier vertex) plus the numeric values of an SDD
// matrix supported on it: a strictly dominant diagonal and signed
// off-diagonals.
func randomForest(n int, rnd *rand.Rand) (edges []TreeEdge, diag, off []float64) {
	for v := 1; v < n; v++ {
		edges = append(edges, TreeEdge{U: rnd.Intn(v), V: v})
	}
	diag = make([]float64, n)
	off = make([]float64, len(edges))
	for i := range off {
		off[i] = rnd.NormFloat64()
	}
	for v := range diag {
		diag[v] = 0.1 + rnd.Float64()
	}
	for i, e := range edges {
		diag[e.U] += math.Abs(off[i])
		diag[e.V] += math.Abs(off[i])
	}
	return edges, diag, off
}

// denseFromTree assembles M = diag + forest off-diagonals for reference.
func denseFromTree(n int, edges []TreeEdge, diag, off []float64) *Dense {
	m := NewDense(n, n)
	for v, d := range diag {
		m.Set(v, v, d)
	}
	for i, e := range edges {
		m.Set(e.U, e.V, off[i])
		m.Set(e.V, e.U, off[i])
	}
	return m
}

// The fill-free factorization must be exact on its own support: applying
// M then M⁻¹ is the identity for matrices whose off-diagonals all lie on
// the forest.
func TestTreeCholExactOnForest(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 33} {
		edges, diag, off := randomForest(n, rnd)
		p, err := NewTreeCholPrecond(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		p.Refresh(diag, off)
		m := denseFromTree(n, edges, diag, off)
		r := make([]float64, n)
		for i := range r {
			r[i] = rnd.NormFloat64()
		}
		x := make([]float64, n)
		p.ApplyTo(x, r)
		back := m.MulVec(x)
		if diff := Norm2(Sub(back, r)) / (1 + Norm2(r)); diff > 1e-12 {
			t.Fatalf("n=%d: M·M⁻¹r deviates from r by %g", n, diff)
		}
	}
}

// M⁻¹ must be SPD — the property CG's convergence theory needs: symmetric
// in the inner product and positive on every probed direction, even when a
// refresh carries degenerate values that trip the pivot clamp.
func TestPrecondSPD(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	n := 24
	edges, diag, off := randomForest(n, rnd)
	tree, err := NewTreeCholPrecond(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	// The edgeless forest is the diagonal (Jacobi) preconditioner.
	edgeless, err := NewTreeCholPrecond(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		if trial == 2 {
			// Degenerate refresh: zero diagonal forces the pivot clamp.
			for i := range diag {
				diag[i] = 0
			}
		}
		tree.Refresh(diag, off)
		edgeless.Refresh(diag, nil)
		for k, p := range []*TreeCholPrecond{tree, edgeless} {
			u := make([]float64, n)
			v := make([]float64, n)
			for i := range u {
				u[i] = rnd.NormFloat64()
				v[i] = rnd.NormFloat64()
			}
			pu := make([]float64, n)
			pv := make([]float64, n)
			p.ApplyTo(pu, u)
			p.ApplyTo(pv, v)
			// Symmetry: ⟨M⁻¹u, v⟩ = ⟨u, M⁻¹v⟩.
			l, r := Dot(pu, v), Dot(u, pv)
			if diff := math.Abs(l-r) / (1 + math.Abs(l)); diff > 1e-10 {
				t.Fatalf("trial %d preconditioner %d: asymmetric, %g vs %g", trial, k, l, r)
			}
			// Positivity: ⟨M⁻¹u, u⟩ > 0 for u ≠ 0.
			if q := Dot(pu, u); q <= 0 {
				t.Fatalf("trial %d preconditioner %d: quadratic form %g not positive", trial, k, q)
			}
		}
		for i, e := range edges {
			off[i] = rnd.NormFloat64()
			diag[e.U] += math.Abs(off[i])
			diag[e.V] += math.Abs(off[i])
		}
	}
}

// Symbolic reuse: refreshing one preconditioner across reweights must be
// bit-identical to building a fresh one from scratch for each weighting —
// the contract that lets a session keep one elimination structure across
// every IPM step.
func TestTreeCholRefreshEqualsRebuild(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	n := 19
	edges, diag, off := randomForest(n, rnd)
	reused, err := NewTreeCholPrecond(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, n)
	for i := range r {
		r[i] = rnd.NormFloat64()
	}
	got := make([]float64, n)
	want := make([]float64, n)
	for reweight := 0; reweight < 5; reweight++ {
		reused.Refresh(diag, off)
		fresh, err := NewTreeCholPrecond(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Refresh(diag, off)
		reused.ApplyTo(got, r)
		fresh.ApplyTo(want, r)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("reweight %d: entry %d differs, %v vs %v", reweight, i, got[i], want[i])
			}
		}
		// Fresh weights for the next round (keep dominance).
		for i := range diag {
			diag[i] = 0.1 + rnd.Float64()
		}
		for i, e := range edges {
			off[i] = rnd.NormFloat64()
			diag[e.U] += math.Abs(off[i])
			diag[e.V] += math.Abs(off[i])
		}
	}
}

// The hot-path contract: ApplyTo and Refresh allocate nothing after
// construction.
func TestPrecondAllocationFree(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	n := 64
	edges, diag, off := randomForest(n, rnd)
	tree, err := NewTreeCholPrecond(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, n)
	dst := make([]float64, n)
	for i := range r {
		r[i] = rnd.NormFloat64()
	}
	tree.Refresh(diag, off)
	if allocs := testing.AllocsPerRun(100, func() { tree.ApplyTo(dst, r) }); allocs != 0 {
		t.Fatalf("TreeCholPrecond.ApplyTo allocates %v per run", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { tree.Refresh(diag, off) }); allocs != 0 {
		t.Fatalf("TreeCholPrecond.Refresh allocates %v per run", allocs)
	}
}

// Cyclic or malformed edge sets must be rejected at construction — the
// fill-free factorization exists only on forests.
func TestTreeCholRejectsNonForest(t *testing.T) {
	if _, err := NewTreeCholPrecond(3, []TreeEdge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}); err == nil {
		t.Fatal("cycle accepted")
	}
	if _, err := NewTreeCholPrecond(2, []TreeEdge{{U: 0, V: 1}, {U: 1, V: 0}}); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if _, err := NewTreeCholPrecond(2, []TreeEdge{{U: 0, V: 2}}); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if _, err := NewTreeCholPrecond(2, []TreeEdge{{U: 1, V: 1}}); err == nil {
		t.Fatal("self-loop accepted")
	}
}

// CG preconditioned by the forest factorization must converge in fewer
// iterations than unpreconditioned CG on a tree-dominated SDD system.
func TestTreeCholAcceleratesCG(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	n := 200
	// A path graph Laplacian plus small diagonal: condition number Θ(n²),
	// the classic CG-hostile instance that a tree preconditioner inverts
	// exactly.
	var ts []Triple
	edges := make([]TreeEdge, 0, n-1)
	diag := make([]float64, n)
	off := make([]float64, 0, n-1)
	for v := 0; v+1 < n; v++ {
		w := 1 + rnd.Float64()
		edges = append(edges, TreeEdge{U: v, V: v + 1})
		off = append(off, -w)
		diag[v] += w
		diag[v+1] += w
	}
	for v := 0; v < n; v++ {
		diag[v] += 0.01
		ts = append(ts, Triple{Row: v, Col: v, Val: diag[v]})
	}
	for i, e := range edges {
		ts = append(ts, Triple{Row: e.U, Col: e.V, Val: off[i]}, Triple{Row: e.V, Col: e.U, Val: off[i]})
	}
	a := NewCSR(n, n, ts)
	b := make([]float64, n)
	for i := range b {
		b[i] = rnd.NormFloat64()
	}
	p, err := NewTreeCholPrecond(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	p.Refresh(diag, off)
	x := make([]float64, n)
	plain, err := CGTo(nil, x, a, b, 1e-10, 10*n, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := CGTo(nil, x, a, b, 1e-10, 10*n, p.ApplyTo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pre >= plain {
		t.Fatalf("tree-preconditioned CG took %d iterations, unpreconditioned %d", pre, plain)
	}
	if pre > 3 {
		t.Fatalf("preconditioner supported on the whole graph should solve in ≤ 3 iterations, took %d", pre)
	}
}
