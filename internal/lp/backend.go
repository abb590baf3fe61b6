// Backend registry for the normal-equation solves of the interior-point
// method. Every centering's projection reduces to one system (AᵀDA)x = y
// with a fresh positive diagonal D (repairFeasibility adds one more per
// polish); how that system is solved is pluggable: callers name a
// registered backend in Problem.Backend, and NewSession, the one place a
// session gets its solver, builds it. Leverage scores do not go through
// the backend: the session computes them from its own dense factorization
// (exactLeverage in lewis.go), whatever backend it runs.
//
// Built-in backends:
//
//	dense   — assemble AᵀDA densely and factorize it on every call
//	          (linalg.GramFactor: Cholesky, with a Gaussian fallback); the
//	          exact reference, O(n³) per solve.
//	csr-pcg — never materialize AᵀDA: apply Aᵀ·diag(D)·A in one fused
//	          pass over A's rows inside CG preconditioned by a
//	          spanning-forest incomplete Cholesky, whose forest is built
//	          once per session from the constraint matrix and only
//	          numerically refreshed on each call (see precond.go). O(nnz)
//	          per iteration; on a non-incidence matrix the forest is
//	          edgeless and the preconditioner is diag(AᵀDA).
//
// csr-pcg stops its CG by linalg.InexactCGTo, the one definition of the
// tolerance and budget.
package lp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"bcclap/internal/linalg"
)

// ErrBackendUnknown is returned (wrapped, with the registered names) when a
// backend name does not resolve in the registry. Callers detect it with
// errors.Is and fail fast before any solve starts.
var ErrBackendUnknown = errors.New("lp: unknown backend")

// BackendFactory builds an ATDASolve bound to a fixed constraint matrix A.
// The returned closure is invoked once per path step with a fresh diagonal;
// factories should hoist all D-independent state (transposes, workspaces,
// symbolic structure) so the per-call cost is pure numerics. The returned
// solver is used sequentially; it need not be safe for concurrent calls.
type BackendFactory func(a *linalg.CSR) (ATDASolve, error)

// PrecondStats counts the combinatorial-preconditioner work of a backend
// instance, cumulative over its lifetime (i.e. over the owning session):
// Builds counts symbolic constructions — subgraph extraction, elimination
// ordering — and Refreshes counts numeric refactorizations, one per
// projection solve. A session whose Builds stays at 1 across queries is
// reusing its symbolic structure, which is the point.
type PrecondStats struct {
	Builds    int
	Refreshes int
}

// statsFactory is the registry's one entry kind: a BackendFactory that
// also returns its preconditioner counters (nil for backends without a
// combinatorial preconditioner).
type statsFactory func(a *linalg.CSR) (ATDASolve, *PrecondStats, error)

var (
	backendMu sync.RWMutex
	// backends holds the two built-ins and every RegisterBackend entry.
	backends = map[string]statsFactory{
		"dense":   denseBackend,
		"csr-pcg": csrPCGBackend,
	}
)

// RegisterBackend makes a named AᵀDA strategy available to Problem.Backend;
// it reports no preconditioner counters. It panics on a duplicate or empty
// name (registration is an init-time programming act, not a runtime
// input).
func RegisterBackend(name string, f BackendFactory) {
	if name == "" || f == nil {
		panic("lp: RegisterBackend with empty name or nil factory")
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("lp: backend %q registered twice", name))
	}
	backends[name] = func(a *linalg.CSR) (ATDASolve, *PrecondStats, error) {
		solve, err := f(a)
		return solve, nil, err
	}
}

// Backends returns the sorted names of all registered backends.
func Backends() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewBackendSolverStats instantiates the named backend for A and returns
// its preconditioner counters when the backend maintains them (nil for
// backends without a combinatorial preconditioner). The counters are live:
// they advance as the returned solver is used.
func NewBackendSolverStats(name string, a *linalg.CSR) (ATDASolve, *PrecondStats, error) {
	f, err := lookupBackend(name)
	if err != nil {
		return nil, nil, err
	}
	return f(a)
}

// lookupBackend resolves name in the registry; an unknown name fails with
// ErrBackendUnknown, listing the registered ones.
func lookupBackend(name string) (statsFactory, error) {
	backendMu.RLock()
	f, ok := backends[name]
	backendMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %v)", ErrBackendUnknown, name, Backends())
	}
	return f, nil
}

// ResolveBackend returns the registry name a session runs for name:
// DefaultBackend when name is empty, name itself otherwise. It is the one
// place the default applies, and it instantiates nothing. An unknown name
// fails with an error satisfying errors.Is(err, ErrBackendUnknown) that
// lists the registered names, so API boundaries can reject typos before
// any work starts.
func ResolveBackend(name string) (string, error) {
	name = cmp.Or(name, DefaultBackend)
	if _, err := lookupBackend(name); err != nil {
		return "", err
	}
	return name, nil
}

// DefaultBackend is the backend every caller that names none runs.
const DefaultBackend = "dense"

// denseBackend factorizes AᵀDA densely on every call with
// linalg.GramFactor. The reference for tests and small instances; it keeps
// no preconditioner counters.
func denseBackend(a *linalg.CSR) (ATDASolve, *PrecondStats, error) {
	gram := linalg.NewGramFactor(a)
	return func(_ context.Context, d, y []float64) ([]float64, int, error) {
		if err := checkATDAArgs(a, d, y); err != nil {
			return nil, 0, err
		}
		gram.Factor(d)
		x, err := gram.Solve(y)
		return x, 0, err
	}, nil, nil
}

// matrixFreeSolve is csr-pcg's ATDASolve: it never materializes AᵀDA but
// applies it in one pass over A's rows (CSR.GramMulVecTo) inside
// linalg.InexactCGTo, preconditioned by st's fill-free incomplete
// Cholesky. Every call rewrites the diagonal and the preconditioner
// numerics for its D and counts the refresh in stats.
func matrixFreeSolve(a *linalg.CSR, st *pcgStructure, stats *PrecondStats) ATDASolve {
	n := a.Cols()
	ws := linalg.NewWorkspace()
	var dcur []float64 // the D of the running call
	diag := make([]float64, n)
	x := make([]float64, n)
	op := linalg.FuncOp(func(dst, x []float64) {
		a.GramMulVecTo(dst, dcur, x)
	})
	return func(ctx context.Context, d, y []float64) ([]float64, int, error) {
		if err := checkATDAArgs(a, d, y); err != nil {
			return nil, 0, err
		}
		dcur = d
		a.GramDiagTo(diag, d) // diag(AᵀDA)
		st.refresh(d, diag)
		stats.Refreshes++
		iters, err := linalg.InexactCGTo(ctx, x, op, y, st.tree.ApplyTo, ws)
		if err != nil {
			return nil, iters, err
		}
		return linalg.Clone(x), iters, nil
	}
}

func checkATDAArgs(a *linalg.CSR, d, y []float64) error {
	if len(d) != a.Rows() {
		return fmt.Errorf("lp: AᵀDA diagonal has %d entries, want %d", len(d), a.Rows())
	}
	if len(y) != a.Cols() {
		return fmt.Errorf("lp: AᵀDA right-hand side has %d entries, want %d", len(y), a.Cols())
	}
	return nil
}
