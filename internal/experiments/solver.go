package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
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

// SessionResult is e17, shaped as BENCH_session.json: the instance and a
// row per backend.
type SessionResult struct {
	Instance Instance               `json:"instance"`
	Backends map[string]*SessionRow `json:"backends"`
}

// SessionRow is one e17 backend: the median one-shot solve against the
// median per-query time of a batch of identical queries on one session.
type SessionRow struct {
	OneShot       time.Duration `json:"one_shot_ns"`
	BatchPerQuery time.Duration `json:"batch_per_query_ns"`
	Speedup       float64       `json:"speedup"`
	BatchLen      int           `json:"batch_len"`
	Warm          int           `json:"warm_started_in_batch"`
}

// SessionWorkloads defines e17 on a fixed 6-vertex network: per backend,
// "<backend>/one-shot" answers one query on a single-use session, and
// "<backend>/batch" answers 6 copies of it (4 at quick scale) on one
// session primed with the query, so every answer must warm-start and skip
// path following. "<backend>/session-cold" answers the query with Solve,
// which never warm-starts, on one session; only the benchmark times it.
// Every answer must be exact.
func SessionWorkloads(ctx context.Context, quick bool) (*SessionResult, []Workload, error) {
	d := graph.RandomFlowNetwork(6, 0.3, 3, 3, rand.New(rand.NewSource(18)))
	in, err := newInstance(d)
	if err != nil {
		return nil, nil, err
	}
	r := &SessionResult{Instance: in, Backends: map[string]*SessionRow{}}
	queries := slices.Repeat([]bcclap.FlowQuery{{S: in.S, T: in.T}}, pick(quick, 6, 4))
	var ws []Workload
	for _, backend := range bcclap.FlowBackends() {
		row := &SessionRow{BatchLen: len(queries)}
		r.Backends[backend] = row
		opts := []bcclap.Option{bcclap.WithSeed(7), bcclap.WithBackend(backend)}
		solve := func(fs *bcclap.FlowSolver) error {
			res, err := fs.Solve(ctx, in.S, in.T)
			if err == nil {
				err = in.check(res)
			}
			return err
		}
		oneShot := func() (func(int) error, func(), error) {
			return func(int) error {
				fs, err := bcclap.NewFlowSolver(d, opts...)
				if err != nil {
					return err
				}
				defer fs.Close()
				return solve(fs)
			}, noop, nil
		}
		session := func(prime bool, step func(fs *bcclap.FlowSolver) error) func() (func(int) error, func(), error) {
			return func() (func(int) error, func(), error) {
				fs, err := bcclap.NewFlowSolver(d, opts...)
				if err != nil {
					return nil, nil, err
				}
				if prime {
					_, err = fs.SolveBatch(ctx, queries[:1])
				}
				return ready(func(int) error { return step(fs) }, fs.Close, err)
			}
		}
		batch := func(fs *bcclap.FlowSolver) error {
			results, err := fs.SolveBatch(ctx, queries)
			row.Warm = 0
			for _, res := range results {
				if err := in.check(res); err != nil {
					return err
				}
				if res.Stats.WarmStarted {
					row.Warm++
				}
			}
			if err == nil && row.Warm < len(queries) {
				err = fmt.Errorf("only %d of %d batch queries warm-started", row.Warm, len(queries))
			}
			return err
		}
		ws = append(ws,
			Workload{Name: backend + "/one-shot", Start: oneShot, record: func(d time.Duration) { row.OneShot = d }},
			Workload{Name: backend + "/session-cold", Start: session(false, solve)},
			Workload{Name: backend + "/batch", Start: session(true, batch), record: func(d time.Duration) {
				row.BatchPerQuery = d / time.Duration(row.BatchLen)
				row.Speedup = float64(row.OneShot) / float64(max(row.BatchPerQuery, 1))
			}})
	}
	return r, ws, nil
}

// PoolResult is e18, shaped as BENCH_pool.json: the instance and a row per
// pool size k, keyed pool_<k>.
type PoolResult struct {
	Instance struct {
		N             int `json:"graph_n"`
		M             int `json:"graph_m"`
		BatchLen      int `json:"batch_len"`
		DistinctPairs int `json:"distinct_pairs"`
	} `json:"instance"`
	Throughput map[string]*PoolRow `json:"throughput"`
}

// PoolRow is one e18 pool size.
type PoolRow struct {
	Pool    int           `json:"-"`
	Batch   time.Duration `json:"batch_ns"`
	QPS     float64       `json:"queries_per_sec"`
	Speedup float64       `json:"speedup_vs_pool_1"`
}

// PoolWorkloads defines e18 on a fixed 6-vertex network and a batch of up
// to three distinct terminal pairs (cold solves, which fan out across
// workers), each queried twice (the repeat warm-starts inside its
// worker): "pool-<k>" answers the batch on a FlowSolver of k worker
// sessions, k = 1, 2, 4. Any answer that differs from the sequential
// SolveBatch's fails the step. e18 has no quick scale.
func PoolWorkloads(ctx context.Context, quick bool) (*PoolResult, []Workload, error) {
	d := graph.RandomFlowNetwork(6, 0.35, 3, 3, rand.New(rand.NewSource(19)))
	pairs, err := usablePairs(d)
	if err != nil {
		return nil, nil, err
	}
	var queries []bcclap.FlowQuery
	for _, p := range pairs {
		queries = append(queries, p, p)
	}
	seq, err := bcclap.NewFlowSolver(d, bcclap.WithSeed(7))
	if err != nil {
		return nil, nil, err
	}
	want, err := seq.SolveBatch(ctx, queries)
	seq.Close()
	if err != nil {
		return nil, nil, err
	}
	r := &PoolResult{Throughput: map[string]*PoolRow{}}
	r.Instance.N, r.Instance.M, r.Instance.BatchLen, r.Instance.DistinctPairs = d.N(), d.M(), len(queries), len(pairs)
	var ws []Workload
	for _, size := range []int{1, 2, 4} {
		row := &PoolRow{Pool: size}
		r.Throughput[fmt.Sprintf("pool_%d", size)] = row
		ws = append(ws, Workload{Name: fmt.Sprintf("pool-%d", size), Start: func() (func(int) error, func(), error) {
			fs, err := bcclap.NewFlowSolver(d, bcclap.WithSeed(7), bcclap.WithPoolSize(size))
			return func(int) error {
				got, err := fs.SolveBatch(ctx, queries)
				for i := range got {
					if got[i].Value != want[i].Value || got[i].Cost != want[i].Cost {
						return fmt.Errorf("query %d: pooled (%d, %d) vs sequential (%d, %d)",
							i, got[i].Value, got[i].Cost, want[i].Value, want[i].Cost)
					}
				}
				return err
			}, fs.Close, err
		}, record: func(d time.Duration) {
			row.Batch, row.QPS = d, float64(len(queries))/d.Seconds()
			row.Speedup = row.QPS / r.Throughput["pool_1"].QPS
		}})
	}
	return r, ws, nil
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
