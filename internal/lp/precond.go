// The csr-pcg backend: matrix-free CG over the fused AᵀDA operator
// preconditioned by a fill-free incomplete Cholesky over a spanning forest
// of the constraint matrix's graph (Vaidya's spanning-tree preconditioner).
//
// The flow LP's constraint matrix is incidence-structured: every row has
// at most two nonzeros, so AᵀDA = (graph Laplacian over the two-nonzero
// rows) + (diagonal from the one-nonzero rows). That graph is exactly the
// flow network on the non-source vertices, and a combinatorial
// preconditioner is a sparse subgraph of it. The factory runs once per
// constraint matrix (i.e. once per session, shared by every IPM step and
// every query on the session):
//
//  1. classify rows (symbolic; a row with three or more nonzeros makes
//     the matrix non-incidence, and its forest is edgeless, so the
//     preconditioner is diag(AᵀDA)),
//  2. build a spanning forest in one Kruskal pass: the distinct column
//     pairs by descending number of rows (parallel arcs, the strongest
//     couplings), ties in (u, v) order, each kept when it joins two
//     components of a union-find,
//  3. build the fill-free elimination structure (linalg.TreeCholPrecond).
//
// Per ATDA call the backend only refreshes numerics for that call's D.
package lp

import (
	"sort"

	"bcclap/internal/graph"
	"bcclap/internal/linalg"
)

// pcgStructure is the symbolic half of the csr-pcg preconditioner, built
// once per constraint matrix and shared by every numeric refresh.
type pcgStructure struct {
	// tree is the fill-free factorization over the forest; on an edgeless
	// forest it is the diagonal (Jacobi) preconditioner.
	tree *linalg.TreeCholPrecond
	// Off-diagonal assembly: forest edge t sums d[offRow[k]]·offCoef[k]
	// over k in [offPtr[t], offPtr[t+1]) — the rows (parallel arcs) whose
	// support is exactly that vertex pair.
	offPtr  []int
	offRow  []int
	offCoef []float64
	off     []float64 // the assembled sums, one per forest edge
}

// pcgPair is a distinct unordered column pair carrying at least one
// two-nonzero row.
type pcgPair struct {
	u, v int
	rows []int
	coef []float64 // product of the two row values, aligned with rows
}

// buildPCGStructure runs the symbolic analysis (steps 1–3 above) and
// reports whether A is incidence-structured; a non-incidence A gets the
// edgeless forest.
func buildPCGStructure(a *linalg.CSR) (*pcgStructure, bool, error) {
	n := a.Cols()
	pairs, incidence := collectPairs(a)
	if !incidence {
		st, err := forestStructure(n, nil)
		return st, false, err
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		return len(pairs[i].rows) > len(pairs[j].rows)
	})
	uf := graph.NewUnionFind(n)
	var forest []*pcgPair
	for _, p := range pairs {
		if uf.Union(p.u, p.v) {
			forest = append(forest, p)
		}
	}
	st, err := forestStructure(n, forest)
	return st, true, err
}

// forestStructure lays out the off-diagonal assembly of the forest's
// pairs and builds their elimination structure.
func forestStructure(n int, forest []*pcgPair) (*pcgStructure, error) {
	edges := make([]linalg.TreeEdge, len(forest))
	st := &pcgStructure{offPtr: make([]int, len(forest)+1), off: make([]float64, len(forest))}
	for i, p := range forest {
		edges[i] = linalg.TreeEdge{U: p.u, V: p.v}
		st.offRow = append(st.offRow, p.rows...)
		st.offCoef = append(st.offCoef, p.coef...)
		st.offPtr[i+1] = len(st.offRow)
	}
	tree, err := linalg.NewTreeCholPrecond(n, edges)
	if err != nil {
		return nil, err
	}
	st.tree = tree
	return st, nil
}

// collectPairs classifies every row of A: one-nonzero rows contribute only
// to the diagonal, two-nonzero rows are graph edges. A row with three or
// more nonzeros makes the matrix non-incidence-structured and the caller
// uses the edgeless forest.
func collectPairs(a *linalg.CSR) ([]*pcgPair, bool) {
	type key struct{ u, v int }
	byPair := map[key]*pcgPair{}
	for r := 0; r < a.Rows(); r++ {
		cols, vals := a.Row(r)
		if len(cols) <= 1 {
			continue
		}
		if len(cols) > 2 {
			return nil, false
		}
		u, v := cols[0], cols[1]
		if u > v {
			u, v = v, u
		}
		p := byPair[key{u, v}]
		if p == nil {
			p = &pcgPair{u: u, v: v}
			byPair[key{u, v}] = p
		}
		p.rows = append(p.rows, r)
		p.coef = append(p.coef, vals[0]*vals[1])
	}
	pairs := make([]*pcgPair, 0, len(byPair))
	for _, p := range byPair {
		pairs = append(pairs, p)
	}
	// Deterministic edge order (maps iterate randomly): sort by (u, v).
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].u != pairs[j].u {
			return pairs[i].u < pairs[j].u
		}
		return pairs[i].v < pairs[j].v
	})
	return pairs, true
}

// csrPCGBackend builds the ATDASolve of the csr-pcg backend: the symbolic
// work — structure analysis, forest, elimination ordering — happens here,
// once, and matrixFreeSolve refreshes only the numerics.
func csrPCGBackend(a *linalg.CSR) (ATDASolve, *PrecondStats, error) {
	st, incidence, err := buildPCGStructure(a)
	if err != nil {
		return nil, nil, err
	}
	stats := &PrecondStats{}
	if incidence {
		// Only a forest over A's graph counts: on non-incidence matrices
		// the forest is edgeless and Builds stays 0, so a formulation
		// change that silently loses the preconditioner shows up as
		// PrecondBuilds = 0.
		stats.Builds++
	}
	return matrixFreeSolve(a, st, stats), stats, nil
}

// refresh refactorizes the tree preconditioner for the barrier diagonal d,
// given diag = diag(AᵀDA). It replaces non-positive entries of diag
// (numerically degenerate columns) by 1 so the factor diagonal stays
// meaningful, and sums each forest edge's off-diagonal over its rows.
func (st *pcgStructure) refresh(d, diag []float64) {
	for i, v := range diag {
		if v <= 0 {
			diag[i] = 1
		}
	}
	for t := range st.off {
		var s float64
		for k := st.offPtr[t]; k < st.offPtr[t+1]; k++ {
			s += d[st.offRow[k]] * st.offCoef[k]
		}
		st.off[t] = s
	}
	st.tree.Refresh(diag, st.off)
}
