package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"bcclap"
	"bcclap/internal/flow"
	"bcclap/internal/graph"
	"bcclap/internal/linalg"
	"bcclap/internal/lp"
)

// ATDAInstance builds the flow LP of a random network on n vertices plus a
// representative barrier diagonal and right-hand side: the AᵀDA system e16
// and BenchmarkE15BackendSolve solve.
func ATDAInstance(n int) (a *linalg.CSR, dvec, y []float64, err error) {
	rnd := rand.New(rand.NewSource(16))
	d := graph.RandomFlowNetwork(n, 0.05, 3, 3, rnd)
	form, err := flow.NewLPForm(d, 0, d.N()-1, rnd)
	if err != nil {
		return nil, nil, nil, err
	}
	a = form.Prob.A
	dvec = make([]float64, a.Rows())
	for i := range dvec {
		dvec[i] = 0.05 + rnd.Float64()
	}
	y = make([]float64, a.Cols())
	for i := range y {
		y[i] = rnd.NormFloat64()
	}
	return a, dvec, y, nil
}

// BackendsResult is e16, shaped as BENCH_backends.json: the median AᵀDA
// solve per backend on one flow LP.
type BackendsResult struct {
	ATDA struct {
		N     int                      `json:"graph_n"`
		Rows  int                      `json:"lp_rows"`
		Cols  int                      `json:"lp_cols"`
		NNZ   int                      `json:"nnz"`
		Solve map[string]time.Duration `json:"solve_ns"`
	} `json:"atda"`
}

// E16 times every registered AᵀDA backend on the flow LP of a 384-vertex
// network (after one warm-up solve). It has no quick scale.
func E16(ctx context.Context, quick bool) (*BackendsResult, error) {
	a, dvec, y, err := ATDAInstance(384)
	if err != nil {
		return nil, err
	}
	r := &BackendsResult{}
	r.ATDA.N, r.ATDA.Rows, r.ATDA.Cols, r.ATDA.NNZ, r.ATDA.Solve = 384, a.Rows(), a.Cols(), a.NNZ(), map[string]time.Duration{}
	for _, name := range lp.Backends() {
		solve, _, err := lp.NewBackendSolverStats(name, a)
		if err != nil {
			return nil, err
		}
		solve(ctx, dvec, y) // warm up factory state
		if r.ATDA.Solve[name], err = median(func() error {
			_, _, err := solve(ctx, dvec, y)
			return err
		}); err != nil {
			return nil, fmt.Errorf("backend %s: %w", name, err)
		}
	}
	return r, nil
}

// PrecondResult is e19, shaped as BENCH_precond.json: per instance, keyed
// n<n>, its query and a row per backend.
type PrecondResult struct {
	Queries map[string]*PrecondQuery `json:"queries"`
}

// PrecondQuery is one e19 instance.
type PrecondQuery struct {
	Instance
	PerBackend map[string]*PrecondRow `json:"per_backend"`
}

// PrecondRow is one e19 (instance, backend) query: its solver counters
// and median wall clock.
type PrecondRow struct {
	CGIters   int           `json:"cg_iters"`
	PathSteps int           `json:"path_steps"`
	Builds    int           `json:"precond_builds"`
	Refreshes int           `json:"precond_refreshes"`
	Time      time.Duration `json:"solve_ns"`
}

// PrecondWorkloads defines e19 on fixed sparse flow networks, n = 8 and 12
// (8 alone at quick scale), sized so a certified query takes well under a
// second while the barrier weights still spread far enough for a
// preconditioner to win back conditioning: "n<n>-<backend>" answers
// (0, n−1) on one session through csr-cg (Jacobi only) or csr-pcg
// (spanner-built spanning-forest incomplete Cholesky, its symbolic
// structure reused across IPM steps and queries). Every answer must be
// exact.
func PrecondWorkloads(ctx context.Context, quick bool) (*PrecondResult, []Workload, error) {
	r := &PrecondResult{Queries: map[string]*PrecondQuery{}}
	var ws []Workload
	for _, n := range pick(quick, []int{8, 12}, []int{8}) {
		d := graph.RandomFlowNetwork(n, 0.1, 3, 3, rand.New(rand.NewSource(int64(n))))
		in, err := newInstance(d)
		if err != nil {
			return nil, nil, err
		}
		q := &PrecondQuery{Instance: in, PerBackend: map[string]*PrecondRow{}}
		r.Queries[fmt.Sprintf("n%d", n)] = q
		for _, backend := range []string{"csr-cg", "csr-pcg"} {
			row := &PrecondRow{}
			q.PerBackend[backend] = row
			ws = append(ws, Workload{Name: fmt.Sprintf("n%d-%s", n, backend), Start: func() (func(int) error, func(), error) {
				fs, err := bcclap.NewFlowSolver(d, bcclap.WithSeed(7), bcclap.WithBackend(backend))
				return func(int) error {
					res, err := fs.Solve(ctx, in.S, in.T)
					if err != nil {
						return err
					}
					st := res.Stats
					row.CGIters, row.PathSteps, row.Builds, row.Refreshes = st.CGIterations, st.PathSteps, st.PrecondBuilds, st.PrecondRefreshes
					return in.check(res)
				}, fs.Close, err
			}, Metrics: func() map[string]float64 {
				return map[string]float64{"cg_iters": float64(row.CGIters), "precond_refreshes": float64(row.Refreshes)}
			}, record: func(d time.Duration) { row.Time = d }})
		}
	}
	return r, ws, nil
}
