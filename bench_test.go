package bcclap

// One benchmark per experiment in DESIGN.md's index (E1–E12). The paper is
// a theory contribution without empirical tables, so each benchmark
// measures the quantity a theorem bounds and reports it via ReportMetric
// next to the bound; cmd/bcclap-experiments runs the full parameter sweeps
// and prints the comparison tables recorded in EXPERIMENTS.md.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcclap/internal/flow"
	"bcclap/internal/graph"
	"bcclap/internal/jl"
	"bcclap/internal/lapsolver"
	"bcclap/internal/linalg"
	"bcclap/internal/lp"
	"bcclap/internal/sim"
	"bcclap/internal/spanner"
	"bcclap/internal/sparsify"
	"bcclap/internal/store"
)

// E1 — Lemma 3.1: spanner size O(k·n^{1+1/k}).
func BenchmarkE1Spanner(b *testing.B) {
	g := graph.Complete(48)
	k := 3
	var edges float64
	for i := 0; i < b.N; i++ {
		res := spanner.Run(g, nil, nil, k, spanner.Options{
			MarkRand: rand.New(rand.NewSource(int64(i))),
			EdgeRand: rand.New(rand.NewSource(int64(i) + 999)),
		})
		edges += float64(len(res.FPlus))
	}
	n := float64(g.N())
	b.ReportMetric(edges/float64(b.N), "edges")
	b.ReportMetric(float64(k)*math.Pow(n, 1+1/float64(k)), "bound_kn^(1+1/k)")
}

// E2 — Lemma 3.2: spanner rounds O(k·n^{1/k}(log n + log W)).
func BenchmarkE2SpannerRounds(b *testing.B) {
	g := graph.Complete(48)
	adj := make([][]int, g.N())
	for v := range adj {
		adj[v] = g.Neighbors(v)
	}
	k := 3
	var rounds float64
	for i := 0; i < b.N; i++ {
		net, err := sim.NewNetwork(sim.Config{N: g.N(), Mode: sim.ModeBroadcastCONGEST, Adjacency: adj})
		if err != nil {
			b.Fatal(err)
		}
		spanner.Run(g, nil, nil, k, spanner.Options{
			MarkRand: rand.New(rand.NewSource(int64(i))),
			EdgeRand: rand.New(rand.NewSource(int64(i) + 7)),
			Net:      net,
		})
		rounds += float64(net.Rounds())
	}
	n := float64(g.N())
	b.ReportMetric(rounds/float64(b.N), "rounds")
	b.ReportMetric(float64(k)*math.Pow(n, 1/float64(k))*math.Log2(n), "bound")
}

// E3 — Theorem 1.2: sparsifier size and Broadcast CONGEST rounds.
func BenchmarkE3Sparsify(b *testing.B) {
	rnd := rand.New(rand.NewSource(3))
	g := graph.RandomConnected(48, 0.6, 4, rnd)
	adj := make([][]int, g.N())
	for v := range adj {
		adj[v] = g.Neighbors(v)
	}
	par := sparsify.Params{K: 4, T: 2, Iterations: 6}
	var size, rounds float64
	for i := 0; i < b.N; i++ {
		net, err := sim.NewNetwork(sim.Config{N: g.N(), Mode: sim.ModeBroadcastCONGEST, Adjacency: adj})
		if err != nil {
			b.Fatal(err)
		}
		res := sparsify.Adhoc(g, par, rand.New(rand.NewSource(int64(i))), net)
		size += float64(res.H.M())
		rounds += float64(res.Rounds)
	}
	b.ReportMetric(size/float64(b.N), "sparsifier_edges")
	b.ReportMetric(float64(g.M()), "input_edges")
	b.ReportMetric(rounds/float64(b.N), "rounds")
}

// E4 — Lemma 3.3: ad-hoc vs a-priori sampling cost parity.
func BenchmarkE4AdhocVsApriori(b *testing.B) {
	rnd := rand.New(rand.NewSource(4))
	g := graph.RandomConnected(32, 0.5, 3, rnd)
	par := sparsify.Params{K: 3, T: 1, Iterations: 5}
	b.Run("adhoc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparsify.Adhoc(g, par, rand.New(rand.NewSource(int64(i))), nil)
		}
	})
	b.Run("apriori", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparsify.Apriori(g, par, rand.New(rand.NewSource(int64(i))))
		}
	})
}

// E5 — Theorem 1.3: Laplacian solve iterations O(log(1/ε)) and rounds.
func BenchmarkE5LaplacianSolve(b *testing.B) {
	g := graph.Grid(6, 6)
	net, err := NewBCCNetwork(g.N())
	if err != nil {
		b.Fatal(err)
	}
	s, err := lapsolver.New(g, lapsolver.Config{Rand: rand.New(rand.NewSource(5)), Net: net})
	if err != nil {
		b.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(6))
	bb := make([]float64, g.N())
	for i := range bb {
		bb[i] = rnd.NormFloat64()
	}
	bb = linalg.ProjectOutOnes(bb)
	b.ResetTimer()
	var iters, rounds float64
	for i := 0; i < b.N; i++ {
		_, st, err := s.Solve(bb, 1e-8)
		if err != nil {
			b.Fatal(err)
		}
		iters += float64(st.Iterations)
		rounds += float64(st.Rounds)
	}
	b.ReportMetric(iters/float64(b.N), "cheb_iters")
	b.ReportMetric(rounds/float64(b.N), "rounds")
	b.ReportMetric(float64(s.PreprocessRounds), "preprocess_rounds")
}

// E6 — Lemma 4.5: leverage-score approximation, exact vs Kane–Nelson JL.
func BenchmarkE6LeverageScores(b *testing.B) {
	rnd := rand.New(rand.NewSource(7))
	m, n := 80, 8
	var ts []linalg.Triple
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			ts = append(ts, linalg.Triple{Row: i, Col: j, Val: rnd.NormFloat64()})
		}
	}
	a := linalg.NewCSR(m, n, ts)
	d := linalg.Ones(m)
	mul, mulT := jl.DiagScaledOps(a, d)
	solve, err := jl.DenseGramSolver(a, d)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := jl.LeverageScoresExact(mul, m, n, solve); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kanenelson", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sk, err := jl.NewKaneNelson(24, m, 0, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := jl.LeverageScoresApprox(mul, mulT, m, n, solve, sk); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E7 — Lemma 4.10: mixed-norm-ball projection at scale.
func BenchmarkE7MixedBall(b *testing.B) {
	rnd := rand.New(rand.NewSource(8))
	m := 4096
	a := make([]float64, m)
	l := make([]float64, m)
	for i := range a {
		a[i] = rnd.NormFloat64()
		l[i] = 0.5 + rnd.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp.ProjectMixedBall(a, l, nil)
	}
}

// E8 — Theorem 1.4: LP path steps ∝ √n.
func BenchmarkE8LPSolve(b *testing.B) {
	nBlocks := 4
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
	prob := &lp.Problem{
		A: linalg.NewCSR(m, nBlocks, ts),
		B: linalg.Ones(nBlocks),
		C: c,
		L: make([]float64, m),
		U: linalg.Ones(m),
	}
	x0 := linalg.Constant(m, 1.0/3)
	b.ResetTimer()
	var steps float64
	for i := 0; i < b.N; i++ {
		sol, err := lp.Solve(prob, x0, 0.1, lp.Params{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		steps += float64(sol.PathSteps)
	}
	b.ReportMetric(steps/float64(b.N), "path_steps")
	b.ReportMetric(math.Sqrt(float64(nBlocks)), "sqrt_n")
}

// E9 — Theorem 1.1: exact min-cost max-flow, LP pipeline vs SSP baseline.
func BenchmarkE9MinCostFlow(b *testing.B) {
	rnd := rand.New(rand.NewSource(9))
	d := graph.RandomFlowNetwork(6, 0.3, 3, 3, rnd)
	b.Run("lp-pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := flow.MinCostMaxFlow(d, 0, d.N()-1, flow.Options{
				Rand: rand.New(rand.NewSource(int64(i + 1))),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ssp-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := flow.MinCostMaxFlowSSP(d, 0, d.N()-1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E10 — Lemma 5.1: SDD solving through the Gremban reduction vs dense.
func BenchmarkE10Gremban(b *testing.B) {
	rnd := rand.New(rand.NewSource(10))
	g := graph.RandomConnected(24, 0.3, 4, rnd)
	m := g.Laplacian().Dense()
	for i := 0; i < g.N(); i++ {
		m.Inc(i, i, 0.5+rnd.Float64())
	}
	y := make([]float64, g.N())
	for i := range y {
		y[i] = rnd.NormFloat64()
	}
	b.Run("gremban-cg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := lapsolver.SDDSolve(context.Background(), m, y, lapsolver.CGLapSolve); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.Solve(y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E11 — ablation: bundle size t vs sparsifier size (Kyng et al.'s fixed t).
func BenchmarkE11BundleAblation(b *testing.B) {
	rnd := rand.New(rand.NewSource(11))
	g := graph.RandomConnected(40, 0.6, 2, rnd)
	for _, tBundle := range []int{1, 2, 4} {
		par := sparsify.Params{K: 4, T: tBundle, Iterations: 6}
		b.Run(map[int]string{1: "t1", 2: "t2", 4: "t4"}[tBundle], func(b *testing.B) {
			var size float64
			for i := 0; i < b.N; i++ {
				res := sparsify.Adhoc(g, par, rand.New(rand.NewSource(int64(i))), nil)
				size += float64(res.H.M())
			}
			b.ReportMetric(size/float64(b.N), "edges")
		})
	}
}

// E13 — footnote 4 extension: shared-seed a-priori sampling in the BCC vs
// the ad-hoc Broadcast CONGEST algorithm.
func BenchmarkE13SeededSparsify(b *testing.B) {
	rnd := rand.New(rand.NewSource(13))
	g := graph.RandomConnected(32, 0.5, 3, rnd)
	par := sparsify.Params{K: 3, T: 2, Iterations: 5}
	b.Run("seeded-bcc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparsify.SeededBCC(g, par, int64(i+1), nil)
		}
	})
	b.Run("adhoc-bc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparsify.Adhoc(g, par, rand.New(rand.NewSource(int64(i+1))), nil)
		}
	})
}

// E14 — SSSP as a special case of min-cost flow (the introduction's
// motivating reduction), verified against Dijkstra.
func BenchmarkE14ShortestPathViaFlow(b *testing.B) {
	rnd := rand.New(rand.NewSource(14))
	d := graph.RandomFlowNetwork(5, 0.3, 2, 4, rnd)
	want, err := flow.DijkstraCost(d, 0, d.N()-1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		got, err := flow.ShortestPathViaFlow(d, 0, d.N()-1, flow.Options{
			Rand: rand.New(rand.NewSource(int64(i + 3))),
		})
		if err != nil {
			b.Fatal(err)
		}
		if got != want {
			b.Fatalf("flow-based %d vs Dijkstra %d", got, want)
		}
	}
	b.ReportMetric(float64(want), "shortest_path_cost")
}

// benchATDAInstance builds the flow LP of a random network with n ≥ 256
// vertices plus a representative barrier diagonal and right-hand side — the
// workload both the backend benchmarks and the committed snapshot measure.
func benchATDAInstance(tb testing.TB, n int) (a *linalg.CSR, dvec, y []float64) {
	tb.Helper()
	rnd := rand.New(rand.NewSource(16))
	d := graph.RandomFlowNetwork(n, 0.05, 3, 3, rnd)
	form, err := flow.NewLPForm(d, 0, d.N()-1, rnd)
	if err != nil {
		tb.Fatal(err)
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
	return a, dvec, y
}

// benchSpMVInstance builds the large random CSR and input vector shared by
// the SpMV benchmark and the snapshot.
func benchSpMVInstance() (*linalg.CSR, []float64) {
	rnd := rand.New(rand.NewSource(17))
	n := 3000
	var ts []linalg.Triple
	for r := 0; r < n; r++ {
		for k := 0; k < 60; k++ {
			ts = append(ts, linalg.Triple{Row: r, Col: rnd.Intn(n), Val: rnd.NormFloat64()})
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rnd.NormFloat64()
	}
	return linalg.NewCSR(n, n, ts), x
}

// E15 — LinOp refactor: per-solve latency of the registered AᵀDA backends
// on a flow LP with n ≥ 256 (acceptance: csr-cg beats dense here).
func BenchmarkE15BackendSolve(b *testing.B) {
	a, dvec, y := benchATDAInstance(b, 384)
	for _, name := range lp.Backends() {
		b.Run(name, func(b *testing.B) {
			solve, err := lp.NewBackendSolver(name, a)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := solve(context.Background(), dvec, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E16 — row-sharded parallel SpMV vs the serial kernel on the same matrix
// (the product every solver iteration pays for).
func BenchmarkE16SpMV(b *testing.B) {
	m, x := benchSpMVInstance()
	dst := make([]float64, m.Rows())
	b.ReportMetric(float64(m.NNZ()), "nnz")
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.MulVecToShards(dst, x, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		shards := runtime.NumCPU()
		for i := 0; i < b.N; i++ {
			m.MulVecToShards(dst, x, shards)
		}
	})
}

// benchMedian times f over five repetitions and returns the median — the
// shared timing methodology of both committed snapshots.
func benchMedian(f func()) time.Duration {
	const reps = 5
	times := make([]time.Duration, reps)
	for i := range times {
		start := time.Now()
		f()
		times[i] = time.Since(start)
	}
	for i := range times {
		for j := i + 1; j < reps; j++ {
			if times[j] < times[i] {
				times[i], times[j] = times[j], times[i]
			}
		}
	}
	return times[reps/2]
}

// TestBenchBackendsSnapshot regenerates BENCH_backends.json, the committed
// snapshot of the backend and SpMV comparison (set BENCH_SNAPSHOT=1 to
// refresh; skipped otherwise so regular test runs stay fast). The SpMV
// entry records the auto path next to the pinned serial/parallel kernels
// and gates the shard heuristic: the auto path must either fall back to
// serial or beat it.
func TestBenchBackendsSnapshot(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to regenerate BENCH_backends.json")
	}
	n := 384
	a, dvec, y := benchATDAInstance(t, n)
	solveNS := map[string]int64{}
	for _, name := range lp.Backends() {
		solve, err := lp.NewBackendSolver(name, a)
		if err != nil {
			t.Fatal(err)
		}
		solve(context.Background(), dvec, y) // warm up factory state
		solveNS[name] = benchMedian(func() {
			if _, _, err := solve(context.Background(), dvec, y); err != nil {
				t.Fatal(err)
			}
		}).Nanoseconds()
	}
	if solveNS["csr-cg"] >= solveNS["dense"] {
		t.Errorf("csr-cg (%d ns) does not beat dense (%d ns) at n = %d", solveNS["csr-cg"], solveNS["dense"], n)
	}
	// SpMV serial vs pinned-parallel vs the auto heuristic on the same
	// matrix BenchmarkE16SpMV uses.
	m, x := benchSpMVInstance()
	nn := m.Rows()
	dst := make([]float64, nn)
	const spmvReps = 50
	timeShards := func(run func()) int64 {
		return benchMedian(func() {
			for i := 0; i < spmvReps; i++ {
				run()
			}
		}).Nanoseconds() / spmvReps
	}
	serialNS := timeShards(func() { m.MulVecToShards(dst, x, 1) })
	parallelNS := timeShards(func() { m.MulVecToShards(dst, x, runtime.NumCPU()) })
	autoNS := timeShards(func() { m.MulVecTo(dst, x) })
	autoShards := m.AutoShards()
	// The shard-heuristic gate: the auto path either stays serial (1 CPU,
	// or nnz below the threshold) or must not lose to serial beyond timing
	// noise.
	if autoShards > 1 && autoNS > serialNS+serialNS/10 {
		t.Errorf("auto SpMV picked %d shards but runs at %d ns vs %d ns serial", autoShards, autoNS, serialNS)
	}
	snap := map[string]any{
		"generated_by": "BENCH_SNAPSHOT=1 go test -run TestBenchBackendsSnapshot .",
		"atda": map[string]any{
			"graph_n": n, "lp_rows": a.Rows(), "lp_cols": a.Cols(), "nnz": a.NNZ(),
			"solve_ns": solveNS,
		},
		"spmv": map[string]any{
			"n": nn, "nnz": m.NNZ(), "num_cpu": runtime.NumCPU(),
			"serial_ns": serialNS, "parallel_ns": parallelNS,
			"auto_ns": autoNS, "auto_shards": autoShards,
		},
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_backends.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// E12 — Theorem 1.2's orientation: globalizing the sparsifier costs
// max-out-degree rounds in the BCC, far below broadcasting all edges.
func BenchmarkE12Orientation(b *testing.B) {
	g := graph.Complete(40)
	par := sparsify.Params{K: 4, T: 2, Iterations: 6}
	var outdeg, edges float64
	for i := 0; i < b.N; i++ {
		res := sparsify.Adhoc(g, par, rand.New(rand.NewSource(int64(i))), nil)
		outdeg += float64(res.MaxOutDegree())
		edges += float64(res.H.M())
	}
	b.ReportMetric(outdeg/float64(b.N), "max_out_degree")
	b.ReportMetric(edges/float64(b.N), "edges_naive_rounds")
}

// benchSessionInstance is the fixed flow instance shared by the session
// benchmarks and the BENCH_session.json snapshot.
func benchSessionInstance() (*graph.Digraph, int, int) {
	rnd := rand.New(rand.NewSource(18))
	d := graph.RandomFlowNetwork(6, 0.3, 3, 3, rnd)
	return d, 0, d.N() - 1
}

// E17 — session API: one-shot solves vs a FlowSolver serving the
// same query repeatedly. The session amortizes the LP formulation and
// backend workspaces; warm-started batch queries additionally skip path
// following (the acceptance lever for BENCH_session.json).
func BenchmarkFlowSolverReuse(b *testing.B) {
	d, s, t := benchSessionInstance()
	ctx := context.Background()
	b.Run("one-shot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solveOnce(d, s, t, WithSeed(7)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session-cold", func(b *testing.B) {
		fs, err := NewFlowSolver(d, WithSeed(7))
		if err != nil {
			b.Fatal(err)
		}
		defer fs.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fs.Solve(ctx, s, t); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session-batch-warm", func(b *testing.B) {
		fs, err := NewFlowSolver(d, WithSeed(7))
		if err != nil {
			b.Fatal(err)
		}
		defer fs.Close()
		// Prime the warm state; every timed query then re-centers it.
		if _, err := fs.SolveBatch(ctx, []FlowQuery{{S: s, T: t}}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := fs.SolveBatch(ctx, []FlowQuery{{S: s, T: t}})
			if err != nil {
				b.Fatal(err)
			}
			if !res[0].Stats.WarmStarted {
				b.Fatal("batch query did not warm-start")
			}
		}
	})
}

// TestBenchSessionSnapshot regenerates BENCH_session.json, the committed
// snapshot comparing one-shot solves against session batch solves
// per backend (set BENCH_SNAPSHOT=1 to refresh; skipped otherwise). The
// acceptance gate lives here: batch per-query time must come in below
// one-shot on every backend, with identical certified (value, cost).
func TestBenchSessionSnapshot(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to regenerate BENCH_session.json")
	}
	d, s, tt := benchSessionInstance()
	ctx := context.Background()
	wantV, wantC, _, err := MinCostMaxFlowBaseline(d, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	const batchLen = 6
	backends := map[string]any{}
	for _, backend := range FlowBackends() {
		oneShotNS := benchMedian(func() {
			res, err := solveOnce(d, s, tt, WithSeed(7), WithBackend(backend))
			if err != nil {
				t.Fatal(err)
			}
			if res.Value != wantV || res.Cost != wantC {
				t.Fatalf("%s one-shot: (%d, %d) vs baseline (%d, %d)", backend, res.Value, res.Cost, wantV, wantC)
			}
		}).Nanoseconds()
		fs, err := NewFlowSolver(d, WithSeed(7), WithBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		queries := make([]FlowQuery, batchLen)
		for i := range queries {
			queries[i] = FlowQuery{S: s, T: tt}
		}
		var warm int
		batchPerQueryNS := benchMedian(func() {
			results, err := fs.SolveBatch(ctx, queries)
			if err != nil {
				t.Fatal(err)
			}
			warm = 0
			for i, r := range results {
				if r.Value != wantV || r.Cost != wantC {
					t.Fatalf("%s batch query %d: (%d, %d) vs baseline (%d, %d)", backend, i, r.Value, r.Cost, wantV, wantC)
				}
				if r.Stats.WarmStarted {
					warm++
				}
			}
		}).Nanoseconds() / batchLen
		fs.Close()
		if batchPerQueryNS >= oneShotNS {
			t.Errorf("%s: batch per-query %d ns does not beat one-shot %d ns", backend, batchPerQueryNS, oneShotNS)
		}
		backends[backend] = map[string]any{
			"one_shot_ns":           oneShotNS,
			"batch_per_query_ns":    batchPerQueryNS,
			"batch_len":             batchLen,
			"warm_started_in_batch": warm,
			"speedup":               float64(oneShotNS) / float64(max(batchPerQueryNS, 1)),
		}
	}
	snap := map[string]any{
		"generated_by": "BENCH_SNAPSHOT=1 go test -run TestBenchSessionSnapshot .",
		"instance": map[string]any{
			"graph_n": d.N(), "graph_m": d.M(), "s": s, "t": tt,
			"value": wantV, "cost": wantC,
		},
		"backends": backends,
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_session.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// benchPrecondInstances returns the two fixed sparse flow networks of the
// e19 preconditioner comparison. The sizes are chosen so a full certified
// query finishes in seconds while the interior-point barrier weights still
// spread far enough that the combinatorial preconditioner has conditioning
// to win back.
func benchPrecondInstances() []*graph.Digraph {
	var out []*graph.Digraph
	for _, n := range []int{8, 12} {
		rnd := rand.New(rand.NewSource(int64(n)))
		out = append(out, graph.RandomFlowNetwork(n, 0.1, 3, 3, rnd))
	}
	return out
}

// E19 — combinatorial preconditioning: full certified queries through
// csr-cg (Jacobi only) vs csr-pcg (spanner-built spanning-forest incomplete
// Cholesky, symbolic structure reused across every IPM step). The metric a
// preconditioner exists for is the inner CG iteration total; wall clock
// follows it (see BENCH_precond.json for the gated snapshot).
func BenchmarkE19Precond(b *testing.B) {
	ctx := context.Background()
	for _, d := range benchPrecondInstances() {
		for _, backend := range []string{"csr-cg", "csr-pcg"} {
			b.Run(fmt.Sprintf("n%d-%s", d.N(), backend), func(b *testing.B) {
				fs, err := NewFlowSolver(d, WithSeed(7), WithBackend(backend))
				if err != nil {
					b.Fatal(err)
				}
				defer fs.Close()
				var iters, refreshes float64
				for i := 0; i < b.N; i++ {
					res, err := fs.Solve(ctx, 0, d.N()-1)
					if err != nil {
						b.Fatal(err)
					}
					iters = float64(res.Stats.CGIterations)
					refreshes = float64(res.Stats.PrecondRefreshes)
				}
				b.ReportMetric(iters, "cg_iters")
				if backend == "csr-pcg" {
					b.ReportMetric(refreshes, "precond_refreshes")
				}
			})
		}
	}
}

// TestBenchPrecondSnapshot regenerates BENCH_precond.json, the committed
// snapshot of the csr-pcg preconditioner against csr-cg (set
// BENCH_SNAPSHOT=1 to refresh). Following the e18 convention the gates
// adapt to the host: correctness (certified value/cost equal to the SSP
// baseline) and the inner-iteration reduction — strictly fewer total CG
// iterations per query — are gated unconditionally on every host, while
// the wall-clock win is gated only on multi-core hosts where timing is not
// at the mercy of a shared single CPU. The committed snapshot must still
// *show* lower solve_ns; it simply is not what fails the run on a noisy
// container.
func TestBenchPrecondSnapshot(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to regenerate BENCH_precond.json")
	}
	ctx := context.Background()
	backends := []string{"csr-cg", "csr-pcg"}

	// Full certified queries at two sizes: total inner CG iterations and
	// per-query latency, identical certified (value, cost) required.
	queries := map[string]any{}
	for _, d := range benchPrecondInstances() {
		s, tt := 0, d.N()-1
		wantV, wantC, _, err := MinCostMaxFlowBaseline(d, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		perBackend := map[string]any{}
		iters := map[string]int{}
		solveNS := map[string]int64{}
		for _, backend := range backends {
			fs, err := NewFlowSolver(d, WithSeed(7), WithBackend(backend))
			if err != nil {
				t.Fatal(err)
			}
			var st Stats
			ns := benchMedian(func() {
				res, err := fs.Solve(ctx, s, tt)
				if err != nil {
					t.Fatal(err)
				}
				if res.Value != wantV || res.Cost != wantC {
					t.Fatalf("n=%d %s: (%d, %d) vs baseline (%d, %d)", d.N(), backend, res.Value, res.Cost, wantV, wantC)
				}
				st = res.Stats
			}).Nanoseconds()
			fs.Close()
			iters[backend] = st.CGIterations
			solveNS[backend] = ns
			perBackend[backend] = map[string]any{
				"solve_ns":          ns,
				"cg_iters":          st.CGIterations,
				"path_steps":        st.PathSteps,
				"precond_builds":    st.PrecondBuilds,
				"precond_refreshes": st.PrecondRefreshes,
			}
		}
		// Iteration gate, every host: the preconditioner must strictly cut
		// the inner-iteration total per query.
		if iters["csr-pcg"] >= iters["csr-cg"] {
			t.Errorf("n=%d: csr-pcg used %d CG iterations, csr-cg %d — no reduction",
				d.N(), iters["csr-pcg"], iters["csr-cg"])
		}
		// Wall-clock gate, multi-core hosts only (e18 convention).
		if runtime.NumCPU() > 1 && solveNS["csr-pcg"] >= solveNS["csr-cg"] {
			t.Errorf("n=%d: csr-pcg %d ns per query does not beat csr-cg %d ns on %d CPUs",
				d.N(), solveNS["csr-pcg"], solveNS["csr-cg"], runtime.NumCPU())
		}
		queries[fmt.Sprintf("n%d", d.N())] = map[string]any{
			"graph_n": d.N(), "graph_m": d.M(), "s": s, "t": tt,
			"value": wantV, "cost": wantC,
			"per_backend": perBackend,
		}
	}
	snap := map[string]any{
		"generated_by": "BENCH_SNAPSHOT=1 go test -run TestBenchPrecondSnapshot .",
		"num_cpu":      runtime.NumCPU(),
		"note": "csr-pcg = csr-cg + spanner-built spanning-forest incomplete Cholesky, symbolic " +
			"structure built once per session and numerically refreshed per distinct barrier diagonal; " +
			"the iteration gate holds on every host, the per-query wall-clock gate on multi-core hosts " +
			"(the committed snapshot machine has 1 CPU; its per-query times still show the win because " +
			"it comes from the iteration reduction, not from parallelism)",
		"queries": queries,
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_precond.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// benchPoolInstance is the fixed instance and query mix shared by the
// pool benchmark and the BENCH_pool.json snapshot: a handful of distinct
// terminal pairs (cold solves, which fan out) each queried twice (the
// repeat warm-starts inside its worker).
func benchPoolInstance(tb testing.TB) (*graph.Digraph, []FlowQuery) {
	tb.Helper()
	rnd := rand.New(rand.NewSource(19))
	d := graph.RandomFlowNetwork(6, 0.35, 3, 3, rnd)
	var pairs []FlowQuery
	for s := 0; s < d.N() && len(pairs) < 3; s++ {
		for t := d.N() - 1; t > s && len(pairs) < 3; t-- {
			if v, _, _, err := flow.MinCostMaxFlowSSP(d, s, t); err == nil && v > 0 {
				pairs = append(pairs, FlowQuery{S: s, T: t})
			}
		}
	}
	if len(pairs) < 2 {
		tb.Fatalf("instance too sparse: %d usable pairs", len(pairs))
	}
	var queries []FlowQuery
	for _, p := range pairs {
		queries = append(queries, p, p)
	}
	return d, queries
}

// E18 — concurrent serving: batch throughput through the session pool vs
// pool size. Distinct terminal pairs solve concurrently on independent
// worker sessions; on a multi-core host the batch wall time drops with
// the pool size until GOMAXPROCS saturates (see BENCH_pool.json).
func BenchmarkE18PoolBatch(b *testing.B) {
	d, queries := benchPoolInstance(b)
	ctx := context.Background()
	for _, size := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("pool-%d", size), func(b *testing.B) {
			fs, err := NewFlowSolver(d, WithSeed(7), WithPoolSize(size))
			if err != nil {
				b.Fatal(err)
			}
			defer fs.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fs.SolveBatch(ctx, queries); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBenchPoolSnapshot regenerates BENCH_pool.json, the committed
// snapshot of batch throughput through the session pool vs the sequential
// SolveBatch baseline (set BENCH_SNAPSHOT=1 to refresh). Correctness is
// gated unconditionally — pooled (value, cost) must equal sequential on
// every query. The throughput gate adapts to the host: with more than one
// CPU the widest pool must beat the sequential baseline; on a single-CPU
// host (like the committed snapshot's) pooling cannot help, so the gate
// only rejects pathological overhead (< 0.5× sequential throughput).
func TestBenchPoolSnapshot(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to regenerate BENCH_pool.json")
	}
	d, queries := benchPoolInstance(t)
	ctx := context.Background()

	seq, err := NewFlowSolver(d, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	want, err := seq.SolveBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}

	measure := func(fs *FlowSolver) (nsPerBatch int64) {
		return benchMedian(func() {
			got, err := fs.SolveBatch(ctx, queries)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i].Value != want[i].Value || got[i].Cost != want[i].Cost {
					t.Fatalf("query %d: pooled (%d, %d) vs sequential (%d, %d)",
						i, got[i].Value, got[i].Cost, want[i].Value, want[i].Cost)
				}
			}
		}).Nanoseconds()
	}

	sizes := []int{1, 2, 4}
	perSize := map[string]any{}
	qps := map[int]float64{}
	for _, size := range sizes {
		fs, err := NewFlowSolver(d, WithSeed(7), WithPoolSize(size))
		if err != nil {
			t.Fatal(err)
		}
		ns := measure(fs)
		fs.Close()
		qps[size] = float64(len(queries)) / (float64(ns) / 1e9)
		perSize[fmt.Sprintf("pool_%d", size)] = map[string]any{
			"batch_ns":          ns,
			"queries_per_sec":   qps[size],
			"speedup_vs_pool_1": float64(0), // filled below
		}
	}
	for _, size := range sizes {
		perSize[fmt.Sprintf("pool_%d", size)].(map[string]any)["speedup_vs_pool_1"] = qps[size] / qps[1]
	}
	widest := sizes[len(sizes)-1]
	if runtime.NumCPU() > 1 {
		if qps[widest] <= qps[1] {
			t.Errorf("pool-%d throughput %.2f q/s does not beat sequential %.2f q/s on %d CPUs",
				widest, qps[widest], qps[1], runtime.NumCPU())
		}
	} else if qps[widest] < 0.5*qps[1] {
		t.Errorf("pool-%d throughput %.2f q/s collapsed vs sequential %.2f q/s",
			widest, qps[widest], qps[1])
	}
	note := "throughput scales with pool size up to GOMAXPROCS; regenerate locally to measure your host"
	if runtime.NumCPU() == 1 {
		note = "snapshot host has 1 CPU, so pooled ≈ sequential here (solves are CPU-bound); " +
			"on multi-core hosts distinct-pair solves run in parallel and the gate requires " +
			"pool-4 to beat sequential — regenerate locally to measure yours"
	}
	snap := map[string]any{
		"generated_by": "BENCH_SNAPSHOT=1 go test -run TestBenchPoolSnapshot .",
		"instance": map[string]any{
			"graph_n": d.N(), "graph_m": d.M(),
			"batch_len": len(queries), "distinct_pairs": len(queries) / 2,
		},
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"note":       note,
		"throughput": perSize,
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_pool.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// benchServiceInstance is the fixed two-tenant workload shared by the e20
// benchmark and the BENCH_service.json snapshot: each tenant serves its
// own small network, and the production query stream repeats each usable
// terminal pair `repeats` times — the repeat-heavy shape whose tail the
// certified-result cache turns into O(1) lookups.
func benchServiceInstance(tb testing.TB, repeats int) (nets map[string]*graph.Digraph, streams map[string][]FlowQuery) {
	tb.Helper()
	nets = map[string]*graph.Digraph{}
	streams = map[string][]FlowQuery{}
	for i, name := range []string{"tenant-a", "tenant-b"} {
		rnd := rand.New(rand.NewSource(19 + int64(i)))
		d := graph.RandomFlowNetwork(6, 0.35, 3, 3, rnd)
		var pairs []FlowQuery
		for s := 0; s < d.N() && len(pairs) < 3; s++ {
			for t := d.N() - 1; t > s && len(pairs) < 3; t-- {
				if v, _, _, err := flow.MinCostMaxFlowSSP(d, s, t); err == nil && v > 0 {
					pairs = append(pairs, FlowQuery{S: s, T: t})
				}
			}
		}
		if len(pairs) < 2 {
			tb.Fatalf("tenant %s: instance too sparse (%d usable pairs)", name, len(pairs))
		}
		var stream []FlowQuery
		for r := 0; r < repeats; r++ {
			stream = append(stream, pairs...)
		}
		nets[name] = d
		streams[name] = stream
	}
	return nets, streams
}

// E20 — multi-tenant service layer: the same repeat-heavy query stream
// through (a) a bare pooled FlowSolver (the PR-3 single-tenant baseline),
// (b) a Service tenant with the cache disabled, and (c) a Service tenant
// with the certified-result cache — whose hits skip the solver entirely
// (see BENCH_service.json).
func BenchmarkE20Service(b *testing.B) {
	nets, streams := benchServiceInstance(b, 4)
	d, stream := nets["tenant-a"], streams["tenant-a"]
	ctx := context.Background()

	b.Run("baseline-pool", func(b *testing.B) {
		fs, err := NewFlowSolver(d, WithSeed(7), WithPoolSize(2))
		if err != nil {
			b.Fatal(err)
		}
		defer fs.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fs.SolveBatch(ctx, stream); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, cacheSize := range []int{0, DefaultCacheSize} {
		name := "service-cached"
		if cacheSize == 0 {
			name = "service-uncached"
		}
		b.Run(name, func(b *testing.B) {
			svc := NewService(WithSeed(7), WithPoolSize(2), WithCacheSize(cacheSize))
			defer svc.Close()
			h, err := svc.Register("bench", d)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.SolveBatch(ctx, stream); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := h.Stats().Cache
			if st.Hits+st.Misses > 0 {
				b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit_rate")
			}
		})
	}
}

// TestBenchServiceSnapshot regenerates BENCH_service.json, the committed
// snapshot of the e20 service-layer experiment (set BENCH_SNAPSHOT=1 to
// refresh). Three properties are gated on every host, because none
// depends on parallelism: (1) every service answer — cached or fresh, on
// both tenants — is bit-identical to the PR-3 single-tenant pooled
// baseline in value, cost and flow vector; (2) the repeat-heavy stream
// reaches its predicted cache hit-rate exactly ((repeats-1)/repeats of
// queries after the cold round); (3) the cached stream beats both the
// uncached service and the bare-pool baseline on throughput — a cache hit
// is a hash lookup, orders of magnitude under any certified solve, so
// timing noise cannot flip the gate even on a 1-CPU snapshot host.
func TestBenchServiceSnapshot(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to regenerate BENCH_service.json")
	}
	const repeats = 4
	nets, streams := benchServiceInstance(t, repeats)
	ctx := context.Background()

	// PR-3 single-tenant baselines: one pooled FlowSolver per network.
	baseline := map[string][]*FlowResult{}
	baselineNS := map[string]int64{}
	for name, d := range nets {
		fs, err := NewFlowSolver(d, WithSeed(7), WithPoolSize(2))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fs.SolveBatch(ctx, streams[name])
		if err != nil {
			t.Fatal(err)
		}
		baseline[name] = want
		baselineNS[name] = benchMedian(func() {
			if _, err := fs.SolveBatch(ctx, streams[name]); err != nil {
				t.Fatal(err)
			}
		}).Nanoseconds()
		fs.Close()
	}

	measure := func(cacheSize int) (perTenant map[string]int64, hitRate float64, stats ServiceStats) {
		svc := NewService(WithSeed(7), WithPoolSize(2), WithCacheSize(cacheSize))
		defer svc.Close()
		handles := map[string]*NetworkHandle{}
		for name, d := range nets {
			h, err := svc.Register(name, d)
			if err != nil {
				t.Fatal(err)
			}
			handles[name] = h
		}
		perTenant = map[string]int64{}
		for name, h := range handles {
			// Correctness gate (unconditional): every answer equals the
			// single-tenant baseline bit for bit.
			check := func() {
				got, err := h.SolveBatch(ctx, streams[name])
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					want := baseline[name][i]
					if got[i].Value != want.Value || got[i].Cost != want.Cost ||
						!reflect.DeepEqual(got[i].Flows, want.Flows) {
						t.Fatalf("tenant %s query %d (cache=%d): service (%d, %d, %v) vs baseline (%d, %d, %v)",
							name, i, cacheSize, got[i].Value, got[i].Cost, got[i].Flows,
							want.Value, want.Cost, want.Flows)
					}
				}
			}
			check() // cold round populates the cache
			perTenant[name] = benchMedian(check).Nanoseconds()
		}
		st := svc.ServiceStats()
		if st.Cache.Hits+st.Cache.Misses > 0 {
			hitRate = float64(st.Cache.Hits) / float64(st.Cache.Hits+st.Cache.Misses)
		}
		return perTenant, hitRate, st
	}

	uncachedNS, _, _ := measure(0)
	cachedNS, hitRate, st := measure(DefaultCacheSize)

	queries := 0
	for _, s := range streams {
		queries += len(s)
	}
	qps := func(per map[string]int64) float64 {
		var total int64
		for _, ns := range per {
			total += ns
		}
		return float64(queries) / (float64(total) / 1e9)
	}
	var baseQPS float64
	{
		var total int64
		for _, ns := range baselineNS {
			total += ns
		}
		baseQPS = float64(queries) / (float64(total) / 1e9)
	}
	uncachedQPS, cachedQPS := qps(uncachedNS), qps(cachedNS)

	// Hit-rate gate: after the cold round, every measured round hits on
	// every query, so the service-wide rate must be at least the stream's
	// repeat fraction (the distinct pairs of the cold round are the only
	// misses).
	wantRate := float64(repeats-1) / float64(repeats)
	if hitRate < wantRate {
		t.Errorf("cache hit rate %.3f below the stream's repeat fraction %.3f", hitRate, wantRate)
	}
	// Throughput gates (host-independent: hits are hash lookups).
	if cachedQPS <= uncachedQPS {
		t.Errorf("cached throughput %.1f q/s does not beat uncached %.1f q/s", cachedQPS, uncachedQPS)
	}
	if cachedQPS <= baseQPS {
		t.Errorf("cached service %.1f q/s does not beat the single-tenant pool baseline %.1f q/s", cachedQPS, baseQPS)
	}

	snap := map[string]any{
		"generated_by": "BENCH_SNAPSHOT=1 go test -run TestBenchServiceSnapshot .",
		"instance": map[string]any{
			"tenants": len(nets), "stream_len_total": queries,
			"repeats_per_pair": repeats,
		},
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cache": map[string]any{
			"hit_rate": hitRate,
			"hits":     st.Cache.Hits,
			"misses":   st.Cache.Misses,
			"budget":   st.Cache.Capacity,
		},
		"throughput": map[string]any{
			"baseline_pool_qps":          baseQPS,
			"service_uncached_qps":       uncachedQPS,
			"service_cached_qps":         cachedQPS,
			"cached_speedup_vs_baseline": cachedQPS / baseQPS,
		},
		"note": "cached vs fresh results are gated bit-identical (value, cost, flow vector) on both " +
			"tenants; the cached stream must beat both the uncached service and the PR-3 " +
			"single-tenant pool on every host — hits are O(1) lookups, not solves",
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_service.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// benchStoreTenant is the fixed instance behind the e21 durability
// experiment: one tenant on a small random network plus the delta set its
// patch benchmarks apply (cost/capacity changes on the first and last
// arc, so cached flows through them are invalidated).
func benchStoreTenant(tb testing.TB) (*graph.Digraph, []ArcDelta) {
	tb.Helper()
	d := graph.RandomFlowNetwork(6, 0.35, 3, 3, rand.New(rand.NewSource(23)))
	return d, []ArcDelta{
		{Arc: 0, CapDelta: 1, CostDelta: 1},
		{Arc: d.M() - 1, CostDelta: 1},
	}
}

// storeRegisterRecord encodes one tenant registration for the WAL append
// benchmarks.
func storeRegisterRecord(name string, d *graph.Digraph) store.Record {
	return store.Record{
		Type: store.RecRegister, Name: name, Version: 1,
		Opts: store.TenantOpts{Backend: "dense", Seed: 7, Tol: 1e-6},
		N:    d.N(), Arcs: d.Arcs(),
	}
}

// E21 — durable tenant state: the WAL append tax per mutation record
// (fsync'd and not), recovery wall-clock against tenant count, and the
// incremental patch path against the full re-register it replaces (see
// BENCH_store.json).
func BenchmarkE21Store(b *testing.B) {
	d, deltas := benchStoreTenant(b)
	for _, sync := range []bool{true, false} {
		name := "wal-append-sync"
		pol := store.SyncAlways
		if !sync {
			name, pol = "wal-append-nosync", store.SyncNever
		}
		b.Run(name, func(b *testing.B) {
			lg, err := store.Open(b.TempDir(), store.Options{Sync: pol, SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer lg.Close()
			if err := lg.Append(storeRegisterRecord("bench", d)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := store.Record{
					Type: store.RecPatch, Name: "bench",
					Version: uint64(i) + 2, Deltas: deltas,
				}
				if err := lg.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("recovery-8-tenants", func(b *testing.B) {
		dir := b.TempDir()
		svc, err := OpenService(WithStore(dir), WithSeed(7), WithPoolSize(1))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			dt := graph.RandomFlowNetwork(5, 0.35, 3, 3, rand.New(rand.NewSource(60+int64(i))))
			if _, err := svc.Register(fmt.Sprintf("t%d", i), dt); err != nil {
				b.Fatal(err)
			}
		}
		if err := svc.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			re, err := OpenService(WithStore(dir), WithSeed(7), WithPoolSize(1))
			if err != nil {
				b.Fatal(err)
			}
			if got := len(re.Names()); got != 8 {
				b.Fatalf("recovered %d tenants, want 8", got)
			}
			re.Close()
		}
	})
	// Incremental patch vs the full swap it replaces, resolve included.
	// Each iteration applies the same deltas forward and backward so the
	// tenant state is identical at every step.
	inverse := make([]ArcDelta, len(deltas))
	for i, dl := range deltas {
		inverse[i] = ArcDelta{Arc: dl.Arc, CapDelta: -dl.CapDelta, CostDelta: -dl.CostDelta}
	}
	ctx := context.Background()
	b.Run("patch-resolve", func(b *testing.B) {
		svc := NewService(WithSeed(7), WithPoolSize(1))
		defer svc.Close()
		h, err := svc.Register("bench", d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Solve(ctx, 0, d.N()-1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ds := deltas
			if i%2 == 1 {
				ds = inverse
			}
			if err := h.PatchArcs(ds); err != nil {
				b.Fatal(err)
			}
			if _, err := h.Solve(ctx, 0, d.N()-1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("swap-resolve", func(b *testing.B) {
		svc := NewService(WithSeed(7), WithPoolSize(1))
		defer svc.Close()
		h, err := svc.Register("bench", d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Solve(ctx, 0, d.N()-1); err != nil {
			b.Fatal(err)
		}
		patched := d.Clone()
		if err := patched.ApplyDeltas(deltas); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nd := patched
			if i%2 == 1 {
				nd = d
			}
			if err := h.Swap(nd); err != nil {
				b.Fatal(err)
			}
			if _, err := h.Solve(ctx, 0, d.N()-1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestBenchStoreSnapshot regenerates BENCH_store.json, the committed
// snapshot of the e21 durability experiment (set BENCH_SNAPSHOT=1 to
// refresh). Four properties are gated on every host because none depends
// on timing: (1) restart fidelity — a service reopened from its data
// directory serves each tenant at its exact pre-shutdown version with a
// bit-identical flow vector; (2) the post-patch resolve of an affected
// pair warm-starts (no path following) and still matches the exact SSP
// baseline on the patched network; (3) patches invalidate selectively —
// the untouched tenant pair survives as a cache hit, only the touched
// pair re-solves; (4) the patch-resolve path beats swap-resolve, which
// pays full solver construction for the same state change.
func TestBenchStoreSnapshot(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to regenerate BENCH_store.json")
	}
	ctx := context.Background()
	d, deltas := benchStoreTenant(t)
	patched := d.Clone()
	if err := patched.ApplyDeltas(deltas); err != nil {
		t.Fatal(err)
	}

	// WAL append tax: median ns/record over a fixed batch, per policy.
	appendNS := map[string]float64{}
	for name, pol := range map[string]store.SyncPolicy{"sync": store.SyncAlways, "nosync": store.SyncNever} {
		const recs = 256
		lg, err := store.Open(t.TempDir(), store.Options{Sync: pol, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.Append(storeRegisterRecord("bench", d)); err != nil {
			t.Fatal(err)
		}
		ver := uint64(1)
		ns := benchMedian(func() {
			for i := 0; i < recs; i++ {
				ver++
				if err := lg.Append(store.Record{Type: store.RecPatch, Name: "bench", Version: ver, Deltas: deltas}); err != nil {
					t.Fatal(err)
				}
			}
		}).Nanoseconds()
		appendNS[name] = float64(ns) / recs
		lg.Close()
	}

	// Recovery wall-clock vs tenant count, with the fidelity gate on the
	// largest instance: every tenant at its journaled version, flows
	// bit-identical across the restart.
	recoveryNS := map[string]int64{}
	for _, n := range []int{1, 4, 8} {
		dir := t.TempDir()
		svc, err := OpenService(WithStore(dir), WithSeed(7), WithPoolSize(1))
		if err != nil {
			t.Fatal(err)
		}
		nets := map[string]*graph.Digraph{}
		flows := map[string][]int64{}
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("t%d", i)
			dt := graph.RandomFlowNetwork(5, 0.35, 3, 3, rand.New(rand.NewSource(60+int64(i))))
			h, err := svc.Register(name, dt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := h.Solve(ctx, 0, dt.N()-1)
			if err != nil {
				t.Fatal(err)
			}
			nets[name], flows[name] = dt, res.Flows
		}
		if err := svc.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		recoveryNS[fmt.Sprintf("tenants_%d", n)] = benchMedian(func() {
			re, err := OpenService(WithStore(dir), WithSeed(7), WithPoolSize(1))
			if err != nil {
				t.Fatal(err)
			}
			if got := len(re.Names()); got != n {
				t.Fatalf("recovered %d tenants, want %d", got, n)
			}
			re.Close()
		}).Nanoseconds()
		if n == 8 {
			re, err := OpenService(WithStore(dir), WithSeed(7), WithPoolSize(1))
			if err != nil {
				t.Fatal(err)
			}
			for name, dt := range nets {
				h, err := re.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				if h.Version() != 1 {
					t.Fatalf("tenant %s recovered at v%d, want v1", name, h.Version())
				}
				res, err := h.Solve(ctx, 0, dt.N()-1)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Flows, flows[name]) {
					t.Fatalf("tenant %s: post-restart flows %v, pre-shutdown %v", name, res.Flows, flows[name])
				}
			}
			re.Close()
		}
	}

	// Patch semantics gates on the two-island instance: warm restart of
	// the touched pair, exactness vs SSP, selective invalidation of the
	// untouched pair.
	svc := NewService(WithSeed(7), WithPoolSize(1))
	defer svc.Close()
	hp, err := svc.Register("islands", benchTwoIslandNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hp.Solve(ctx, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := hp.Solve(ctx, 3, 5); err != nil {
		t.Fatal(err)
	}
	islandDeltas := []ArcDelta{{Arc: 3, CostDelta: 2}, {Arc: 4, CapDelta: 1}}
	if err := hp.PatchArcs(islandDeltas); err != nil {
		t.Fatal(err)
	}
	islands := benchTwoIslandNetwork(t)
	if err := islands.ApplyDeltas(islandDeltas); err != nil {
		t.Fatal(err)
	}
	kept, err := hp.Solve(ctx, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !kept.Stats.CacheHit {
		t.Error("selective invalidation gate: untouched pair did not survive the patch")
	}
	touched, err := hp.Solve(ctx, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if touched.Stats.CacheHit {
		t.Error("selective invalidation gate: touched pair served stale from cache")
	}
	if !touched.Stats.WarmStarted || touched.Stats.PathSteps != 0 {
		t.Errorf("warm gate: post-patch resolve warm=%v path_steps=%d, want a warm start with no path following",
			touched.Stats.WarmStarted, touched.Stats.PathSteps)
	}
	wantV, wantC, _, err := flow.MinCostMaxFlowSSP(islands, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if touched.Value != wantV || touched.Cost != wantC {
		t.Errorf("exactness gate: post-patch (%d, %d), SSP baseline (%d, %d)", touched.Value, touched.Cost, wantV, wantC)
	}
	invalidations := hp.Stats().Cache.Invalidations

	// Patch-resolve vs swap-resolve medians (see BenchmarkE21Store for the
	// forward/backward alternation that keeps state fixed).
	inverse := make([]ArcDelta, len(deltas))
	for i, dl := range deltas {
		inverse[i] = ArcDelta{Arc: dl.Arc, CapDelta: -dl.CapDelta, CostDelta: -dl.CostDelta}
	}
	measure := func(step func(i int)) int64 {
		i := 0
		return benchMedian(func() {
			step(i)
			i++
		}).Nanoseconds()
	}
	psvc := NewService(WithSeed(7), WithPoolSize(1))
	defer psvc.Close()
	hPatch, err := psvc.Register("patch", d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hPatch.Solve(ctx, 0, d.N()-1); err != nil {
		t.Fatal(err)
	}
	patchNS := measure(func(i int) {
		ds := deltas
		if i%2 == 1 {
			ds = inverse
		}
		if err := hPatch.PatchArcs(ds); err != nil {
			t.Fatal(err)
		}
		if _, err := hPatch.Solve(ctx, 0, d.N()-1); err != nil {
			t.Fatal(err)
		}
	})
	hSwap, err := psvc.Register("swap", d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hSwap.Solve(ctx, 0, d.N()-1); err != nil {
		t.Fatal(err)
	}
	swapNS := measure(func(i int) {
		nd := patched
		if i%2 == 1 {
			nd = d
		}
		if err := hSwap.Swap(nd); err != nil {
			t.Fatal(err)
		}
		if _, err := hSwap.Solve(ctx, 0, d.N()-1); err != nil {
			t.Fatal(err)
		}
	})
	// Host-independent by construction: swap pays full solver construction
	// plus a cold resolve for the same state change the patch folds into
	// live sessions with a warm resolve.
	if patchNS >= swapNS {
		t.Errorf("patch-resolve %dns does not beat swap-resolve %dns", patchNS, swapNS)
	}

	snap := map[string]any{
		"generated_by": "BENCH_SNAPSHOT=1 go test -run TestBenchStoreSnapshot .",
		"instance": map[string]any{
			"graph_n": d.N(), "graph_m": d.M(), "patch_deltas": len(deltas),
		},
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"wal_append_ns_per_record": map[string]any{
			"sync":       appendNS["sync"],
			"nosync":     appendNS["nosync"],
			"fsync_cost": appendNS["sync"] / appendNS["nosync"],
		},
		"recovery_wall_ns": recoveryNS,
		"patch_vs_swap": map[string]any{
			"patch_resolve_ns": patchNS,
			"swap_resolve_ns":  swapNS,
			"patch_speedup":    float64(swapNS) / float64(patchNS),
		},
		"selective_invalidation": map[string]any{
			"invalidations":  invalidations,
			"untouched_hit":  kept.Stats.CacheHit,
			"touched_missed": !touched.Stats.CacheHit,
		},
		"note": "gates are timing-free except patch vs swap (structural: swap rebuilds the solver pool, " +
			"patch folds deltas into live sessions): restart fidelity is bit-identical flows, the " +
			"post-patch resolve must warm-start with zero path steps and match the exact SSP baseline, " +
			"and patches drop only cache entries whose flows touch a modified arc",
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_store.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// benchTwoIslandNetwork mirrors the two disconnected islands of the
// service tests: pairs (0,2) and (3,5) have disjoint arc supports, so a
// patch on one island provably cannot touch the other's cached flow.
func benchTwoIslandNetwork(tb testing.TB) *graph.Digraph {
	tb.Helper()
	d := graph.NewDigraph(6)
	for _, a := range [][4]int64{
		{0, 1, 4, 1}, {1, 2, 4, 1}, {0, 2, 3, 5},
		{3, 4, 4, 1}, {4, 5, 4, 1}, {3, 5, 3, 5},
	} {
		if _, err := d.AddArc(int(a[0]), int(a[1]), a[2], a[3]); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// benchQoSTenants is the fixed instance behind the e22 QoS experiment:
// a well-behaved "quiet" tenant and a "noisy" one whose clients flood
// it. Both run with the cache disabled so every admitted query costs a
// real solve — the point is pool isolation, not cache hits.
func benchQoSTenants(tb testing.TB) (dQuiet, dNoisy *graph.Digraph) {
	tb.Helper()
	dQuiet = graph.RandomFlowNetwork(6, 0.35, 3, 3, rand.New(rand.NewSource(29)))
	dNoisy = graph.RandomFlowNetwork(4, 0.5, 3, 3, rand.New(rand.NewSource(30)))
	return dQuiet, dNoisy
}

// benchQoSLimits is the gate the noisy tenant runs behind in e22: a
// tight rate with a small burst, one solve at a time, and a two-deep
// queue, so a flood turns into fast 429s instead of queued work. The
// rate keeps the noisy tenant's CPU duty cycle in the low percent even
// on a single-core host, where admitted solves timeshare with the
// quiet tenant's.
func benchQoSLimits() Limits {
	return Limits{RatePerSec: 5, Burst: 1, MaxInFlight: 1, QueueDepth: 2}
}

// benchQoSWarm brings a tenant's pool to steady state: enough sequential
// solves to warm-start every worker session, so the measured rounds see
// production behavior, not one-time preprocessing (a cold solve is an
// order of magnitude over a warm one and would read as a QoS violation
// on a single-core host).
func benchQoSWarm(tb testing.TB, h *NetworkHandle, n int) {
	tb.Helper()
	for i := 0; i < 6; i++ {
		if _, err := h.Solve(context.Background(), 0, n-1); err != nil {
			tb.Fatal(err)
		}
	}
}

// benchPercentile returns the p-quantile (0 ≤ p ≤ 1) of ds by sorting a
// copy; nearest-rank, so p=1 is the maximum.
func benchPercentile(ds []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p * float64(len(s)-1))
	return s[i]
}

// benchFlood hammers the noisy tenant from eight goroutines until stop
// is closed. Rejected clients back off briefly, as a real 429-respecting
// client would; any non-admission error is reported. It returns a
// function that stops the flood and yields (completed, rejected).
//
// It does not return until the flood has recorded its first rejection:
// on a single-P runtime the caller's channel ping-pong with the pool
// workers can otherwise keep the flood goroutines parked for the whole
// measurement window, making "the flood saw rejections" gates flaky.
func benchFlood(tb testing.TB, h *NetworkHandle, n int) func() (int64, int64) {
	tb.Helper()
	ctx := context.Background()
	var completed, rejected atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := h.Solve(ctx, 0, n-1); err != nil {
					if !errors.Is(err, ErrOverloaded) {
						tb.Errorf("flood got a non-admission error: %v", err)
						return
					}
					rejected.Add(1)
					time.Sleep(2 * time.Millisecond)
				} else {
					completed.Add(1)
				}
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); rejected.Load() == 0; {
		if time.Now().After(deadline) {
			tb.Fatalf("flood produced no rejection within 10s; the gate is not limiting")
		}
		time.Sleep(time.Millisecond)
	}
	return func() (int64, int64) {
		close(stop)
		wg.Wait()
		return completed.Load(), rejected.Load()
	}
}

// E22 — per-tenant QoS: the quiet tenant's solve latency with and
// without a flooded, rate-limited neighbor on the same service, and the
// telemetry tax on the cached hot path (see BENCH_qos.json).
func BenchmarkE22QoS(b *testing.B) {
	dQ, dN := benchQoSTenants(b)
	ctx := context.Background()
	for _, flood := range []bool{false, true} {
		name := "quiet-solo"
		if flood {
			name = "quiet-under-flood"
		}
		b.Run(name, func(b *testing.B) {
			svc := NewService(WithSeed(7), WithPoolSize(2))
			defer svc.Close()
			quiet, err := svc.Register("quiet", dQ, WithCacheSize(0))
			if err != nil {
				b.Fatal(err)
			}
			noisy, err := svc.Register("noisy", dN, WithCacheSize(0))
			if err != nil {
				b.Fatal(err)
			}
			benchQoSWarm(b, quiet, dQ.N())
			if flood {
				benchQoSWarm(b, noisy, dN.N())
				if err := noisy.SetLimits(benchQoSLimits()); err != nil {
					b.Fatal(err)
				}
				stopFlood := benchFlood(b, noisy, dN.N())
				defer func() {
					_, rejected := stopFlood()
					b.ReportMetric(float64(rejected), "rejections")
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := quiet.Solve(ctx, 0, dQ.N()-1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, on := range []bool{true, false} {
		name := "cached-hit-telemetry-on"
		if !on {
			name = "cached-hit-telemetry-off"
		}
		b.Run(name, func(b *testing.B) {
			svc := NewService(WithSeed(7), WithPoolSize(1), WithTelemetry(on))
			defer svc.Close()
			h, err := svc.Register("bench", dQ)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.Solve(ctx, 0, dQ.N()-1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.Solve(ctx, 0, dQ.N()-1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBenchQoSSnapshot regenerates BENCH_qos.json, the committed
// snapshot of the e22 QoS experiment (set BENCH_SNAPSHOT=1 to refresh).
// Gated on every host: (1) the quiet tenant's answers under flood are
// bit-identical to its unloaded ones; (2) its p99 under flood stays
// within 2x the unloaded baseline (1ms noise floor) — the admission
// gate, not luck, keeps the noisy tenant's queue off the shared pool;
// (3) the flood actually rejected work and the noisy tenant still got
// admitted solves through (goodput, not a blackout); (4) telemetry keeps
// at least 95% of the cached hot path's throughput (interleaved
// min-of-rounds, so GC and scheduler noise cannot fake a regression).
func TestBenchQoSSnapshot(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to regenerate BENCH_qos.json")
	}
	dQ, dN := benchQoSTenants(t)
	ctx := context.Background()
	const quietSolves = 200

	svc := NewService(WithSeed(7), WithPoolSize(2))
	defer svc.Close()
	quiet, err := svc.Register("quiet", dQ, WithCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := svc.Register("noisy", dN, WithCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}

	// Steady state first, limits second: both pools are warmed while the
	// noisy tenant is still unlimited, then the gate is applied through
	// the runtime-retune path a production operator would use.
	benchQoSWarm(t, quiet, dQ.N())
	benchQoSWarm(t, noisy, dN.N())
	if err := noisy.SetLimits(benchQoSLimits()); err != nil {
		t.Fatal(err)
	}

	runQuiet := func() (lat []time.Duration, results []*FlowResult) {
		lat = make([]time.Duration, quietSolves)
		results = make([]*FlowResult, quietSolves)
		for i := range lat {
			start := time.Now()
			res, err := quiet.Solve(ctx, 0, dQ.N()-1)
			if err != nil {
				t.Fatalf("quiet tenant starved at solve %d: %v", i, err)
			}
			lat[i] = time.Since(start)
			results[i] = res
		}
		return lat, results
	}

	baseLat, baseRes := runQuiet()
	stopFlood := benchFlood(t, noisy, dN.N())
	floodStart := time.Now()
	floodLat, floodRes := runQuiet()
	floodWindow := time.Since(floodStart)
	completed, rejected := stopFlood()

	// Gate 1: flood cannot change the quiet tenant's answers.
	for i := range floodRes {
		if floodRes[i].Value != baseRes[i].Value || floodRes[i].Cost != baseRes[i].Cost ||
			!reflect.DeepEqual(floodRes[i].Flows, baseRes[i].Flows) {
			t.Fatalf("quiet answer %d diverged under flood", i)
		}
	}
	// Gate 2: p99 under flood within 2x the unloaded baseline.
	baseP99 := benchPercentile(baseLat, 0.99)
	floodP99 := benchPercentile(floodLat, 0.99)
	allowed := 2 * max(baseP99, time.Millisecond)
	if floodP99 > allowed {
		t.Errorf("quiet p99 under flood %v exceeds 2x unloaded baseline %v", floodP99, baseP99)
	}
	// Gate 3: the gate rejected flood work, yet the noisy tenant kept
	// real goodput (it is throttled, not blacked out).
	if rejected == 0 {
		t.Error("flood saw no rejections; the admission gate is not limiting")
	}
	if completed == 0 {
		t.Error("noisy tenant had zero goodput under its own flood")
	}
	ad := noisy.Stats().Admission
	if ad.RejectedQueueFull+ad.RejectedDeadline == 0 {
		t.Errorf("admission stats recorded no rejections: %+v", ad)
	}

	// Telemetry tax on the cached hot path: interleaved min-of-rounds of
	// pure cache hits, telemetry on vs off.
	const hitRounds, hitsPerRound = 7, 20000
	hitRound := func(h *NetworkHandle) time.Duration {
		start := time.Now()
		for i := 0; i < hitsPerRound; i++ {
			if _, err := h.Solve(ctx, 0, dQ.N()-1); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	handles := map[bool]*NetworkHandle{}
	for _, on := range []bool{true, false} {
		s := NewService(WithSeed(7), WithPoolSize(1), WithTelemetry(on))
		defer s.Close()
		h, err := s.Register("bench", dQ)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Solve(ctx, 0, dQ.N()-1); err != nil {
			t.Fatal(err)
		}
		handles[on] = h
	}
	// Drain the flood phase's GC debt, then alternate which config runs
	// first per round — otherwise whichever config consistently runs
	// earlier inherits more of the decaying collector work and the ratio
	// reads as instrumentation cost.
	runtime.GC()
	minDur := map[bool]time.Duration{true: time.Hour, false: time.Hour}
	for r := 0; r < hitRounds; r++ {
		order := []bool{true, false}
		if r%2 == 1 {
			order = []bool{false, true}
		}
		for _, on := range order {
			if d := hitRound(handles[on]); d < minDur[on] {
				minDur[on] = d
			}
		}
	}
	for on, h := range handles {
		if hits := h.Stats().Cache.Hits; hits < hitRounds*hitsPerRound {
			t.Fatalf("telemetry=%v hot path missed the cache: %d hits", on, hits)
		}
	}
	overheadRatio := float64(minDur[false]) / float64(minDur[true]) // on-throughput / off-throughput
	if overheadRatio < 0.95 {
		t.Errorf("telemetry keeps only %.1f%% of cached hot-path throughput, want >= 95%%", 100*overheadRatio)
	}

	snap := map[string]any{
		"generated_by": "BENCH_SNAPSHOT=1 go test -run TestBenchQoSSnapshot .",
		"instance": map[string]any{
			"quiet_n": dQ.N(), "quiet_m": dQ.M(),
			"noisy_n": dN.N(), "noisy_m": dN.M(),
			"noisy_limits":     fmt.Sprintf("%+v", benchQoSLimits()),
			"quiet_solves":     quietSolves,
			"flood_goroutines": 8,
		},
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"isolation": map[string]any{
			"quiet_p50_unloaded_us": benchPercentile(baseLat, 0.50).Microseconds(),
			"quiet_p99_unloaded_us": baseP99.Microseconds(),
			"quiet_p50_flood_us":    benchPercentile(floodLat, 0.50).Microseconds(),
			"quiet_p99_flood_us":    floodP99.Microseconds(),
			"p99_ratio":             float64(floodP99) / float64(max(baseP99, time.Millisecond)),
		},
		"noisy_under_flood": map[string]any{
			"goodput_per_sec":     float64(completed) / floodWindow.Seconds(),
			"completed":           completed,
			"rejected":            rejected,
			"rejected_queue_full": ad.RejectedQueueFull,
			"rejected_deadline":   ad.RejectedDeadline,
		},
		"telemetry": map[string]any{
			"cached_hit_qps_on":  float64(hitsPerRound) / minDur[true].Seconds(),
			"cached_hit_qps_off": float64(hitsPerRound) / minDur[false].Seconds(),
			"throughput_ratio":   overheadRatio,
		},
		"note": "quiet answers under flood are gated bit-identical to unloaded ones, quiet p99 within 2x " +
			"the unloaded baseline (1ms floor), the flood must see rejections while the noisy tenant keeps " +
			"goodput, and telemetry must keep >=95% of cached hot-path throughput (interleaved min-of-rounds)",
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_qos.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
