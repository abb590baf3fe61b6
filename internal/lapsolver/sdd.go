package lapsolver

import (
	"context"
	"errors"
	"fmt"
	"math"

	"bcclap/internal/linalg"
)

// ErrNotSDD is returned when the Gremban reduction is given a matrix that
// is not symmetric diagonally dominant with non-positive off-diagonals.
var ErrNotSDD = errors.New("lapsolver: matrix is not SDD with non-positive off-diagonals")

// appendGrembanEdges builds the Laplacian reduction of Lemma 5.1 / Gremban:
// given a symmetric diagonally dominant n×n matrix M with non-positive
// off-diagonal entries (the AᵀDA of the flow LP has this form, since
// M_p = 0), it appends to edges the edge list of a connected Laplacian on
// 2n vertices such that solving L[x₁;x₂] = [y;−y] yields M x = y with
// x = (x₁−x₂)/2. Appending lets a solver refill one slice across solves.
//
// The virtual graph: the two copies u and u+n carry the edges of M's
// off-diagonal support with weight |M(u,v)|, and each vertex is tied to its
// mirror by an edge of weight C₂(u,u)/2, where C₂ = diag(M) − C₁ is the
// diagonal excess and C₁(u,u) = Σ_{v≠u} |M(u,v)|.
func appendGrembanEdges(edges []linalg.WEdge, m *linalg.Dense) ([]linalg.WEdge, error) {
	n := m.Rows()
	if m.Cols() != n {
		return nil, linalg.ErrDimension
	}
	for u := 0; u < n; u++ {
		var offAbs float64
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			muv := m.At(u, v)
			if muv > 1e-12 {
				return nil, fmt.Errorf("%w: positive off-diagonal M[%d][%d] = %g", ErrNotSDD, u, v, muv)
			}
			if math.Abs(muv-m.At(v, u)) > 1e-9*(1+math.Abs(muv)) {
				return nil, fmt.Errorf("%w: not symmetric at (%d,%d)", ErrNotSDD, u, v)
			}
			offAbs += math.Abs(muv)
			if v > u && muv < 0 {
				w := -muv
				edges = append(edges,
					linalg.WEdge{U: u, V: v, W: w},
					linalg.WEdge{U: u + n, V: v + n, W: w},
				)
			}
		}
		c2 := m.At(u, u) - offAbs
		if c2 < -1e-9*(1+math.Abs(m.At(u, u))) {
			return nil, fmt.Errorf("%w: row %d not diagonally dominant (excess %g)", ErrNotSDD, u, c2)
		}
		if c2 > 0 {
			edges = append(edges, linalg.WEdge{U: u, V: u + n, W: c2 / 2})
		}
	}
	return edges, nil
}

// SDDSolver solves M x = y for symmetric diagonally dominant M via the
// Gremban reduction: it builds the 2n-vertex Laplacian of appendGrembanEdges
// and solves L[x₁;x₂] = [y;−y] by Jacobi-preconditioned CG on the
// ones-projected operator, under linalg.InexactCGTo's tolerance and
// budget. In the BCC the doubled network is simulated by letting vertex i
// play both virtual vertices i and i+n, doubling the round count. The zero value is ready to use; it owns the
// workspace and the edge list its solves reuse, so it is not safe for
// concurrent use (one value per sequential solve stream).
type SDDSolver struct {
	ws    linalg.Workspace
	edges []linalg.WEdge
}

// Solve returns x with M x = y and the CG iteration count of the Laplacian
// solve. It honors ctx for cancellation.
func (s *SDDSolver) Solve(ctx context.Context, m *linalg.Dense, y []float64) ([]float64, int, error) {
	n := m.Rows()
	if len(y) != n {
		return nil, 0, linalg.ErrDimension
	}
	edges, err := appendGrembanEdges(s.edges[:0], m)
	if err != nil {
		return nil, 0, err
	}
	s.edges = edges
	ws := &s.ws
	nn := 2 * n
	diag := ws.Get(nn)
	b := ws.Get(nn)
	x := ws.Get(nn)
	defer func() {
		ws.Put(diag)
		ws.Put(b)
		ws.Put(x)
	}()
	for i := range diag {
		diag[i] = 0
	}
	for _, e := range edges {
		diag[e.U] += e.W
		diag[e.V] += e.W
	}
	for i, v := range diag {
		if v <= 0 {
			diag[i] = 1
		}
	}
	for i := 0; i < n; i++ {
		b[i] = y[i]
		b[i+n] = -y[i]
	}
	linalg.ProjectOutOnesInPlace(b)
	op := linalg.ProjectedOp{A: linalg.LaplacianOp{N: nn, Edges: edges}, WS: ws}
	precondTo := func(dst, r []float64) {
		for i := range r {
			dst[i] = r[i] / diag[i]
		}
		linalg.ProjectOutOnesInPlace(dst)
	}
	iters, err := linalg.InexactCGTo(ctx, x, op, b, precondTo, ws)
	if err != nil {
		return nil, iters, err
	}
	linalg.ProjectOutOnesInPlace(x)
	out := make([]float64, n)
	for i := range out {
		out[i] = (x[i] - x[i+n]) / 2
	}
	return out, iters, nil
}
