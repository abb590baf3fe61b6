// The csr-pcg backend: matrix-free CG over the fused AᵀDA operator (as
// csr-cg) preconditioned by a combinatorial, fill-free incomplete Cholesky
// whose support is extracted from the constraint matrix with the paper's
// own spanner/sparsifier machinery.
//
// The flow LP's constraint matrix is incidence-structured: every row has
// at most two nonzeros, so AᵀDA = (graph Laplacian over the two-nonzero
// rows) + (diagonal from the one-nonzero rows). That graph is exactly the
// flow network on the non-source vertices, and a combinatorial
// preconditioner is a sparse subgraph of it. The factory runs once per
// constraint matrix (i.e. once per session, shared by every IPM step and
// every query on the session):
//
//  1. classify rows (symbolic; rejects non-incidence matrices, which fall
//     back to pure Jacobi),
//  2. extract the preconditioning subgraph — a Baswana–Sen spanner
//     (internal/spanner) of the support graph, preceded by one cheap
//     ad-hoc sparsification round (internal/sparsify) when the support is
//     dense — and complete it to a spanning forest,
//  3. build the fill-free elimination structure (linalg.TreeCholPrecond).
//
// Per ATDA call the backend only refreshes numerics for that call's D.
package lp

import (
	"math"
	"math/rand"
	"sort"

	"bcclap/internal/graph"
	"bcclap/internal/linalg"
	"bcclap/internal/spanner"
	"bcclap/internal/sparsify"
)

// pcgSeed fixes the subgraph-extraction randomness: the preconditioner only
// steers iteration counts, never results, but sessions must stay
// deterministic (bit-identical re-runs), so the spanner/sparsifier streams
// derive from a constant rather than ambient state.
const pcgSeed = 0x9e3779b9

// pcgStructure is the symbolic half of the csr-pcg preconditioner, built
// once per constraint matrix and shared by every numeric refresh.
type pcgStructure struct {
	// tree is the fill-free factorization over the extracted forest; nil
	// when A is not incidence-structured (some row has ≥ 3 nonzeros), in
	// which case the backend degrades to Jacobi — still correct, just
	// without the combinatorial boost.
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

// buildPCGStructure runs the symbolic analysis (steps 1–3 above).
func buildPCGStructure(a *linalg.CSR) *pcgStructure {
	n := a.Cols()
	pairs, structured := collectPairs(a)
	if !structured || n == 0 {
		return &pcgStructure{}
	}
	// Support graph: one edge per distinct pair. The spanner prefers light
	// edges, so weight = 1/(1+multiplicity) steers high-multiplicity pairs
	// (parallel arcs, the strongest couplings) into the subgraph.
	g := graph.New(n)
	for _, p := range pairs {
		if _, err := g.AddEdge(p.u, p.v, 1/(1+float64(len(p.rows)))); err != nil {
			return &pcgStructure{}
		}
	}
	k := int(math.Ceil(math.Log2(float64(max(n, 4)))))
	alive := make([]bool, g.M())
	for e := range alive {
		alive[e] = true
	}
	// Dense support (beyond ~n·log n pairs): one cheap ad-hoc
	// sparsification pass first, so the spanner walks a subgraph whose
	// size already matches the target.
	if len(pairs) > 4*n*k {
		rnd := rand.New(rand.NewSource(pcgSeed))
		res := sparsify.Adhoc(g, sparsify.Params{K: k, T: 1, Iterations: 3}, rnd, nil)
		for e := range alive {
			alive[e] = false
		}
		for _, e := range res.KeptEdges {
			alive[e] = true
		}
	}
	sp := spanner.Run(g, alive, nil, k, spanner.Options{
		MarkRand: rand.New(rand.NewSource(pcgSeed + 1)),
		EdgeRand: rand.New(rand.NewSource(pcgSeed + 2)),
	})
	// Spanning forest of the spanner, completed against the full pair set
	// (the spanner preserves connectivity, but the completion sweep makes
	// the forest spanning regardless of sampling accidents).
	uf := graph.NewUnionFind(n)
	var forest []int // indices into pairs
	addAcyclic := func(e int) {
		ed := g.Edge(e)
		if uf.Union(ed.U, ed.V) {
			forest = append(forest, e)
		}
	}
	for _, e := range sp.FPlus {
		addAcyclic(e)
	}
	for e := 0; e < g.M(); e++ {
		addAcyclic(e)
	}
	edges := make([]linalg.TreeEdge, len(forest))
	st := &pcgStructure{offPtr: make([]int, len(forest)+1), off: make([]float64, len(forest))}
	for i, e := range forest {
		p := pairs[e]
		edges[i] = linalg.TreeEdge{U: p.u, V: p.v}
		st.offRow = append(st.offRow, p.rows...)
		st.offCoef = append(st.offCoef, p.coef...)
		st.offPtr[i+1] = len(st.offRow)
	}
	tree, err := linalg.NewTreeCholPrecond(n, edges)
	if err != nil {
		// The forest came from a union-find, so this is unreachable; degrade
		// to Jacobi rather than fail the solve if it ever trips.
		return &pcgStructure{}
	}
	st.tree = tree
	return st
}

// collectPairs classifies every row of A: one-nonzero rows contribute only
// to the diagonal, two-nonzero rows are graph edges. A row with three or
// more nonzeros makes the matrix non-incidence-structured and the caller
// falls back to Jacobi.
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
// work — structure analysis, subgraph extraction, elimination ordering —
// happens here, once, and matrixFreeSolve refreshes only the numerics.
func csrPCGBackend(a *linalg.CSR) (ATDASolve, *PrecondStats, error) {
	stats := &PrecondStats{}
	st := buildPCGStructure(a)
	if st.tree != nil {
		// Only a real combinatorial build counts: on non-incidence
		// matrices the backend degrades to plain Jacobi and Builds stays 0,
		// so the counter distinguishes the two — a formulation change that
		// silently loses the preconditioner shows up as PrecondBuilds = 0.
		stats.Builds++
	}
	return matrixFreeSolve(a, st, stats), stats, nil
}

// refresh refactorizes the tree preconditioner for the barrier diagonal d,
// given diag = diag(AᵀDA). It guards numerically degenerate columns (as
// the Jacobi path does inside Refresh) so the factor diagonal stays
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
