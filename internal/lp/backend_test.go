package lp

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"bcclap/internal/linalg"
)

// incidenceProblem builds a flow-LP-shaped constraint matrix: an incidence
// block over a random connected digraph plus identity rows, so AᵀDA is SDD
// with non-positive off-diagonals, as in a flow LP.
func incidenceProblem(n int, rnd *rand.Rand) *linalg.CSR {
	var ts []linalg.Triple
	row := 0
	// Spanning path plus random chords.
	addArc := func(u, v int) {
		ts = append(ts,
			linalg.Triple{Row: row, Col: u, Val: -1},
			linalg.Triple{Row: row, Col: v, Val: 1},
		)
		row++
	}
	for v := 1; v < n; v++ {
		addArc(v-1, v)
	}
	for k := 0; k < 2*n; k++ {
		u, v := rnd.Intn(n), rnd.Intn(n)
		if u != v {
			addArc(u, v)
		}
	}
	for v := 0; v < n; v++ {
		ts = append(ts, linalg.Triple{Row: row, Col: v, Val: 1})
		row++
	}
	return linalg.NewCSR(row, n, ts)
}

// The registry holds exactly the two built-ins; any other name, the
// retired csr-cg and gremban included, fails with ErrBackendUnknown.
func TestRegisteredBackends(t *testing.T) {
	if names := Backends(); !slices.Equal(names, []string{"csr-pcg", "dense"}) {
		t.Fatalf("registered backends %v, want [csr-pcg dense]", names)
	}
	if got, err := ResolveBackend(""); err != nil || got != "dense" {
		t.Fatalf(`ResolveBackend("") = %q, %v; want "dense"`, got, err)
	}
	a := linalg.NewCSR(1, 1, []linalg.Triple{{Row: 0, Col: 0, Val: 1}})
	for _, name := range []string{"no-such-backend", "csr-cg", "gremban"} {
		if _, err := ResolveBackend(name); !errors.Is(err, ErrBackendUnknown) {
			t.Fatalf("ResolveBackend(%q): got %v, want ErrBackendUnknown", name, err)
		}
		if _, _, err := NewBackendSolverStats(name, a); !errors.Is(err, ErrBackendUnknown) {
			t.Fatalf("backend %q: got %v, want ErrBackendUnknown", name, err)
		}
	}
}

// Every backend must solve the same systems to within the IPM's tolerance.
func TestBackendsAgree(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3; trial++ {
		n := 8 + 4*trial
		a := incidenceProblem(n, rnd)
		m := a.Rows()
		solvers := map[string]ATDASolve{}
		for _, name := range Backends() {
			s, _, err := NewBackendSolverStats(name, a)
			if err != nil {
				t.Fatalf("backend %s: %v", name, err)
			}
			solvers[name] = s
		}
		// Several solves per backend instance: factories hoist state, so
		// repeated calls must stay correct (workspace reuse).
		for rep := 0; rep < 3; rep++ {
			d := make([]float64, m)
			for i := range d {
				d[i] = float64(1+rep) * (0.05 + rnd.Float64())
			}
			y := make([]float64, n)
			for i := range y {
				y[i] = rnd.NormFloat64()
			}
			ref, _, err := solvers["dense"](context.Background(), d, y)
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			refNorm := 1 + linalg.Norm2(ref)
			for name, solve := range solvers {
				got, _, err := solve(context.Background(), d, y)
				if err != nil {
					t.Fatalf("trial %d rep %d backend %s: %v", trial, rep, name, err)
				}
				if diff := linalg.Norm2(linalg.Sub(got, ref)) / refNorm; diff > 1e-5 {
					t.Fatalf("trial %d rep %d backend %s: relative deviation %g from dense", trial, rep, name, diff)
				}
			}
		}
	}
}

// The csr-pcg backend must work inside a full LP solve selected by name.
func TestSolveWithCSRPCGBackend(t *testing.T) {
	nBlocks := 3
	m := 3 * nBlocks
	var ts []linalg.Triple
	c := make([]float64, m)
	for blk := 0; blk < nBlocks; blk++ {
		for j := 0; j < 3; j++ {
			row := 3*blk + j
			ts = append(ts, linalg.Triple{Row: row, Col: blk, Val: 1})
			c[row] = float64(j + 1)
		}
	}
	solve := func(backend string) float64 {
		prob := &Problem{
			A:       linalg.NewCSR(m, nBlocks, ts),
			B:       linalg.Ones(nBlocks),
			C:       c,
			L:       make([]float64, m),
			U:       linalg.Ones(m),
			Backend: backend,
		}
		sol, err := solveFresh(prob, linalg.Constant(m, 1.0/3), 0.05, Params{})
		if err != nil {
			t.Fatalf("backend %s: %v", backend, err)
		}
		return sol.Objective
	}
	dense := solve("dense")
	pcg := solve("csr-pcg")
	if diff := dense - pcg; diff > 0.05 || diff < -0.05 {
		t.Fatalf("objective mismatch: dense %v vs csr-pcg %v", dense, pcg)
	}
	prob := &Problem{
		A: linalg.NewCSR(m, nBlocks, ts), B: linalg.Ones(nBlocks), C: c,
		L: make([]float64, m), U: linalg.Ones(m), Backend: "no-such-backend",
	}
	if _, err := NewSession(prob); !errors.Is(err, ErrBackendUnknown) {
		t.Fatalf("unknown backend: NewSession returned %v, want ErrBackendUnknown", err)
	}
	// NewSession is the one place the default applies, and Backend
	// reports the name it resolved.
	for backend, want := range map[string]string{"": DefaultBackend, "csr-pcg": "csr-pcg"} {
		prob.Backend = backend
		sess, err := NewSession(prob)
		if err != nil {
			t.Fatal(err)
		}
		if got := sess.Backend(); got != want {
			t.Fatalf("prob.Backend %q: Session.Backend() = %q, want %q", backend, got, want)
		}
	}
}
