package linalg

import (
	"fmt"
	"math"
)

// TreeEdge is one undirected edge of a TreeCholPrecond's elimination
// forest, indexing vertices of the preconditioned system.
type TreeEdge struct {
	U, V int
}

// treeCholFloor keeps the factor diagonal strictly positive when the
// Schur-complement updates of a numerically extreme refresh would drive a
// pivot to (or below) zero. Clamping preserves LLᵀ symmetry and positive
// definiteness — the property CG needs — at the price of a slightly less
// accurate preconditioner on that pivot.
const treeCholFloor = 1e-300

// TreeCholPrecond is an incomplete Cholesky preconditioner whose sparsity
// pattern is a spanning forest: M = diag(AᵀDA) + the off-diagonals of AᵀDA
// restricted to the forest edges. Eliminating leaves before their parents
// makes the factorization fill-free, so both Refresh and ApplyTo are O(n)
// and allocation-free, and M = LLᵀ is SPD by construction (every pivot is
// clamped positive). On an edgeless forest M is diag(AᵀDA), the Jacobi
// preconditioner.
//
// The symbolic structure — rooted forest, elimination order, per-vertex
// factor slots — is computed once by NewTreeCholPrecond; Refresh only
// rewrites numeric values, which is what lets one preconditioner follow an
// interior-point run across every reweighting of D.
type TreeCholPrecond struct {
	n int
	// Symbolic structure, fixed at construction.
	order  []int // vertices in elimination order (leaves first)
	parent []int // parent in the rooted forest, -1 for roots
	edgeOf []int // edgeOf[v] = index of the (v, parent[v]) edge, -1 for roots
	// Numeric factor, rewritten by every Refresh.
	lDiag []float64 // l_vv
	lOff  []float64 // l_{parent[v],v}, indexed by child vertex
	// Scratch (owned; ApplyTo and Refresh never allocate).
	d []float64
	y []float64
}

// NewTreeCholPrecond builds the symbolic elimination structure for the
// forest given by edges on n vertices: it roots every component, orders
// vertices leaves-first and records each vertex's factor slot. An edge set
// containing a cycle (or an out-of-range endpoint) is rejected — the
// fill-free factorization exists only on forests.
func NewTreeCholPrecond(n int, edges []TreeEdge) (*TreeCholPrecond, error) {
	adj := make([][]int, n) // vertex -> incident edge indices
	for i, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("linalg: tree edge %d (%d,%d) out of range [0,%d)", i, e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("linalg: tree edge %d is a self-loop at %d", i, e.U)
		}
		adj[e.U] = append(adj[e.U], i)
		adj[e.V] = append(adj[e.V], i)
	}
	p := &TreeCholPrecond{
		n:      n,
		order:  make([]int, 0, n),
		parent: make([]int, n),
		edgeOf: make([]int, n),
		lDiag:  make([]float64, n),
		lOff:   make([]float64, n),
		d:      make([]float64, n),
		y:      make([]float64, n),
	}
	seen := make([]bool, n)
	bfs := make([]int, 0, n)
	for root := 0; root < n; root++ {
		if seen[root] {
			continue
		}
		seen[root] = true
		p.parent[root] = -1
		p.edgeOf[root] = -1
		bfs = append(bfs[:0], root)
		for head := 0; head < len(bfs); head++ {
			v := bfs[head]
			p.order = append(p.order, v)
			for _, ei := range adj[v] {
				e := edges[ei]
				u := e.U
				if u == v {
					u = e.V
				}
				if ei == p.edgeOf[v] {
					continue // the edge to v's own parent
				}
				if seen[u] {
					return nil, fmt.Errorf("linalg: tree edges contain a cycle through (%d,%d)", e.U, e.V)
				}
				seen[u] = true
				p.parent[u] = v
				p.edgeOf[u] = ei
				bfs = append(bfs, u)
			}
		}
	}
	// Eliminate leaves before their parents: reverse the BFS order.
	for i, j := 0, len(p.order)-1; i < j; i, j = i+1, j-1 {
		p.order[i], p.order[j] = p.order[j], p.order[i]
	}
	return p, nil
}

// Refresh refactorizes M = diag + (forest off-diagonals) for new numeric
// values: diag is the full diagonal of the target matrix (length n) and
// off the off-diagonal value per forest edge, in the edge order given to
// NewTreeCholPrecond. The elimination order is fixed, so the factorization
// is a single O(n) sweep with no fill and no allocation.
func (p *TreeCholPrecond) Refresh(diag, off []float64) {
	if len(diag) != p.n {
		panic(fmt.Sprintf("linalg: TreeCholPrecond Refresh got %d diagonal entries, want %d", len(diag), p.n))
	}
	copy(p.d, diag)
	for _, v := range p.order {
		dv := p.d[v]
		if dv < treeCholFloor {
			dv = treeCholFloor
		}
		l := math.Sqrt(dv)
		p.lDiag[v] = l
		if par := p.parent[v]; par >= 0 {
			lo := off[p.edgeOf[v]] / l
			p.lOff[v] = lo
			p.d[par] -= lo * lo
		}
	}
}

// ApplyTo computes dst = (LLᵀ)⁻¹·r without allocating, via one forward
// and one backward substitution along the forest, each O(n).
func (p *TreeCholPrecond) ApplyTo(dst, r []float64) {
	if len(dst) != p.n || len(r) != p.n {
		panic(fmt.Sprintf("linalg: TreeCholPrecond ApplyTo got dst=%d r=%d, want %d", len(dst), len(r), p.n))
	}
	// Forward solve L y = r, columns in elimination order.
	copy(p.y, r)
	for _, v := range p.order {
		yv := p.y[v] / p.lDiag[v]
		p.y[v] = yv
		if par := p.parent[v]; par >= 0 {
			p.y[par] -= p.lOff[v] * yv
		}
	}
	// Backward solve Lᵀ x = y, roots before their subtrees.
	for i := len(p.order) - 1; i >= 0; i-- {
		v := p.order[i]
		x := p.y[v]
		if par := p.parent[v]; par >= 0 {
			x -= p.lOff[v] * dst[par]
		}
		dst[v] = x / p.lDiag[v]
	}
}
