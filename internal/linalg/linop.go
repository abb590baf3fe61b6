package linalg

import "fmt"

// LinOp is a linear operator applied into caller-provided storage. It is the
// solver stack's one operator interface: CSR and Dense matrices, closures
// (FuncOp), Laplacian pencils and their ones-projection all implement it,
// so downstream layers (lapsolver, lp, flow) can solve without
// materializing intermediate matrices or allocating per application.
type LinOp interface {
	// MulVecTo computes dst = Op · x. dst must have length rows and x
	// length cols; dst and x must not alias.
	MulVecTo(dst, x []float64)
}

// checkApply panics unless dst and x match an operator of shape r×c. It
// takes the shape rather than the operator so that a value-type operator
// is not boxed, and its apply stays allocation-free.
func checkApply(r, c int, dst, x []float64) {
	if len(dst) != r || len(x) != c {
		panic(fmt.Sprintf("linalg: LinOp apply got dst=%d x=%d, want dst=%d x=%d", len(dst), len(x), r, c))
	}
}

// Workspace is a small arena of reusable float64 buffers. Iterative solvers
// and projected operators draw their temporaries from one workspace so that
// repeated solves (e.g. the Õ(√n) path steps of the interior-point method)
// stop allocating after the first call. A Workspace is NOT safe for
// concurrent use; give each goroutine its own.
type Workspace struct {
	free [][]float64
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Get returns a length-n buffer with unspecified contents, reusing a
// previously Put buffer when one is large enough.
func (w *Workspace) Get(n int) []float64 {
	if w == nil {
		return make([]float64, n)
	}
	for i := len(w.free) - 1; i >= 0; i-- {
		if cap(w.free[i]) >= n {
			b := w.free[i][:n]
			w.free[i] = w.free[len(w.free)-1]
			w.free = w.free[:len(w.free)-1]
			return b
		}
	}
	return make([]float64, n)
}

// Put returns a buffer to the workspace for reuse. The caller must not use
// b afterwards.
func (w *Workspace) Put(b []float64) {
	if w == nil || cap(b) == 0 {
		return
	}
	w.free = append(w.free, b[:cap(b)])
}

// MulVecTo computes dst = m·x without allocating.
func (m *Dense) MulVecTo(dst, x []float64) {
	checkApply(m.rows, m.cols, dst, x)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// MulVecTTo computes dst = mᵀ·x without allocating.
func (m *Dense) MulVecTTo(dst, x []float64) {
	if len(x) != m.rows || len(dst) != m.cols {
		panic(fmt.Sprintf("linalg: Dense MulVecTTo got dst=%d x=%d, want dst=%d x=%d", len(dst), len(x), m.cols, m.rows))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			dst[j] += v * xi
		}
	}
}

// FuncOp adapts an in-place function dst = Op·x to LinOp.
type FuncOp func(dst, x []float64)

// MulVecTo implements LinOp.
func (f FuncOp) MulVecTo(dst, x []float64) { f(dst, x) }

// LaplacianOp applies the graph Laplacian L = BᵀWB directly from its edge
// list: (Lx)_u = Σ_{(u,v)} w(x_u − x_v). It is allocation-free and never
// assembles L, which makes it the natural pencil operand for preconditioned
// iterations on lo·L_H ≼ L_G ≼ hi·L_H.
type LaplacianOp struct {
	N     int
	Edges []WEdge
}

// MulVecTo implements LinOp.
func (l LaplacianOp) MulVecTo(dst, x []float64) {
	checkApply(l.N, l.N, dst, x)
	for i := range dst {
		dst[i] = 0
	}
	for _, e := range l.Edges {
		d := e.W * (x[e.U] - x[e.V])
		dst[e.U] += d
		dst[e.V] -= d
	}
}

// ProjectedOp applies P·A·P, where P projects onto 1⊥ by subtracting the
// mean: the operator a Laplacian solve iterates on, since L's nullspace
// span{1} is then projected out of every iterate. The intermediate P·x
// comes from WS (nil allocates it per call).
type ProjectedOp struct {
	A  LinOp
	WS *Workspace
}

// MulVecTo implements LinOp.
func (p ProjectedOp) MulVecTo(dst, x []float64) {
	px := p.WS.Get(len(x))
	copy(px, x)
	ProjectOutOnesInPlace(px)
	p.A.MulVecTo(dst, px)
	ProjectOutOnesInPlace(dst)
	p.WS.Put(px)
}
