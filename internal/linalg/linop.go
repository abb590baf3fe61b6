package linalg

import "fmt"

// LinOp is a linear operator applied into caller-provided storage. It is the
// solver stack's one operator interface: CSR and Dense matrices, diagonal
// scalings, transposes, compositions and Laplacian pencils all implement it,
// so downstream layers (lapsolver, lp, flow) can compose solves without
// materializing intermediate matrices or allocating per application.
type LinOp interface {
	// Dims returns the (rows, cols) shape of the operator.
	Dims() (rows, cols int)
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
// and composed operators draw their temporaries from one workspace so that
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

// Dims implements LinOp for CSR.
func (m *CSR) Dims() (int, int) { return m.rows, m.cols }

// Dims implements LinOp for Dense.
func (m *Dense) Dims() (int, int) { return m.rows, m.cols }

// MulVecTo computes dst = m·x without allocating.
func (m *Dense) MulVecTo(dst, x []float64) {
	checkApply(m.rows, m.cols, dst, x)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
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
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v * xi
		}
	}
}

// FuncOp adapts an in-place function with explicit dimensions to LinOp.
type FuncOp struct {
	R, C  int
	Apply func(dst, x []float64)
}

// Dims implements LinOp.
func (f FuncOp) Dims() (int, int) { return f.R, f.C }

// MulVecTo implements LinOp.
func (f FuncOp) MulVecTo(dst, x []float64) { f.Apply(dst, x) }

// DiagOp is the diagonal operator diag(D).
type DiagOp struct{ D []float64 }

// Dims implements LinOp.
func (d DiagOp) Dims() (int, int) { return len(d.D), len(d.D) }

// MulVecTo implements LinOp.
func (d DiagOp) MulVecTo(dst, x []float64) {
	checkApply(len(d.D), len(d.D), dst, x)
	for i, v := range d.D {
		dst[i] = v * x[i]
	}
}

// TransposeOp applies Aᵀ for a CSR matrix A (row-scatter; serial).
type TransposeOp struct{ A *CSR }

// Dims implements LinOp.
func (t TransposeOp) Dims() (int, int) { return t.A.cols, t.A.rows }

// MulVecTo implements LinOp.
func (t TransposeOp) MulVecTo(dst, x []float64) {
	checkApply(t.A.cols, t.A.rows, dst, x)
	t.A.MulVecTTo(dst, x)
}

// ComposedOp applies Ops[0]·Ops[1]·…·Ops[k-1] (rightmost first), drawing
// intermediate vectors from its workspace so repeated applications allocate
// nothing. Construct with Compose.
type ComposedOp struct {
	ops []LinOp
	ws  *Workspace
}

// Compose chains operators into their product op0·op1·…; it panics on an
// inner dimension mismatch. ws may be nil (then intermediates are allocated
// per call).
func Compose(ws *Workspace, ops ...LinOp) *ComposedOp {
	if len(ops) == 0 {
		panic("linalg: Compose needs at least one operator")
	}
	for i := 0; i+1 < len(ops); i++ {
		_, c := ops[i].Dims()
		r, _ := ops[i+1].Dims()
		if c != r {
			panic(fmt.Sprintf("linalg: Compose inner dimension mismatch at %d: %d vs %d", i, c, r))
		}
	}
	return &ComposedOp{ops: ops, ws: ws}
}

// Dims implements LinOp.
func (c *ComposedOp) Dims() (int, int) {
	r, _ := c.ops[0].Dims()
	_, cc := c.ops[len(c.ops)-1].Dims()
	return r, cc
}

// MulVecTo implements LinOp.
func (c *ComposedOp) MulVecTo(dst, x []float64) {
	rows, cols := c.Dims()
	checkApply(rows, cols, dst, x)
	cur := x
	var scratch []float64
	for i := len(c.ops) - 1; i >= 0; i-- {
		op := c.ops[i]
		r, _ := op.Dims()
		var out []float64
		if i == 0 {
			out = dst
		} else {
			out = c.ws.Get(r)
		}
		op.MulVecTo(out, cur)
		if scratch != nil {
			c.ws.Put(scratch)
		}
		scratch = nil
		if i != 0 {
			scratch = out
		}
		cur = out
	}
}

// LaplacianOp applies the graph Laplacian L = BᵀWB directly from its edge
// list: (Lx)_u = Σ_{(u,v)} w(x_u − x_v). It is allocation-free and never
// assembles L, which makes it the natural pencil operand for preconditioned
// iterations on lo·L_H ≼ L_G ≼ hi·L_H.
type LaplacianOp struct {
	N     int
	Edges []WEdge
}

// Dims implements LinOp.
func (l LaplacianOp) Dims() (int, int) { return l.N, l.N }

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

// Dims implements LinOp.
func (p ProjectedOp) Dims() (int, int) { return p.A.Dims() }

// MulVecTo implements LinOp.
func (p ProjectedOp) MulVecTo(dst, x []float64) {
	px := p.WS.Get(len(x))
	copy(px, x)
	ProjectOutOnesInPlace(px)
	p.A.MulVecTo(dst, px)
	ProjectOutOnesInPlace(dst)
	p.WS.Put(px)
}
