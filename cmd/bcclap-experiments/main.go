// Command bcclap-experiments regenerates every experiment table recorded
// in EXPERIMENTS.md: for each theorem/lemma of the paper it sweeps the
// relevant parameter, measures the bounded quantity (size, stretch,
// rounds, iterations, approximation band), and prints it next to the
// paper's bound so the scaling shape can be inspected directly.
//
// Usage:
//
//	bcclap-experiments            # run everything
//	bcclap-experiments -exp e3    # one experiment
//	bcclap-experiments -quick     # smaller sweeps
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bcclap"
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

// flowBackend is the AᵀDA backend used by the flow-pipeline experiments
// (set by -backend; e15 sweeps all registered backends regardless).
var flowBackend string

func main() {
	exp := flag.String("exp", "all", "experiment id (e1..e12, e15, e17, e19, e20, e21, e22 or all)")
	quick := flag.Bool("quick", false, "smaller sweeps")
	backend := flag.String("backend", "", "AᵀDA solve backend for the flow experiments: "+strings.Join(lp.Backends(), ", ")+" (default: auto — csr-pcg on sparse graphs, else dense)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this duration (e.g. 10m; 0 = no limit)")
	flag.Parse()
	flowBackend = *backend
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, *exp, *quick); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "bcclap-experiments: exceeded -timeout %v: %v\n", *timeout, err)
		} else {
			fmt.Fprintln(os.Stderr, "bcclap-experiments:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, exp string, quick bool) error {
	all := map[string]func(context.Context, bool) error{
		"e1": e1, "e2": e2, "e3": e3, "e4": e4, "e5": e5, "e6": e6,
		"e7": e7, "e8": e8, "e9": e9, "e10": e10, "e11": e11, "e12": e12,
		"e15": e15, "e17": e17, "e19": e19, "e20": e20, "e21": e21, "e22": e22,
	}
	if exp == "all" {
		for _, id := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e15", "e17", "e19", "e20", "e21", "e22"} {
			if err := all[id](ctx, quick); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		return nil
	}
	f, ok := all[strings.ToLower(exp)]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return f(ctx, quick)
}

func header(id, claim string) {
	fmt.Printf("\n## %s — %s\n\n", strings.ToUpper(id), claim)
}

func bcNet(g *graph.Graph) *sim.Network {
	adj := make([][]int, g.N())
	for v := range adj {
		adj[v] = g.Neighbors(v)
	}
	net, err := sim.NewNetwork(sim.Config{N: g.N(), Mode: sim.ModeBroadcastCONGEST, Adjacency: adj})
	if err != nil {
		panic(err)
	}
	return net
}

// e1: spanner stretch + size vs Lemma 3.1.
func e1(ctx context.Context, quick bool) error {
	header("e1", "Lemma 3.1: stretch ≤ 2k−1, |F⁺| = O(k·n^{1+1/k})")
	ns := []int{16, 32, 48}
	if quick {
		ns = []int{16, 32}
	}
	fmt.Println("| graph | n | k | 2k-1 | stretch | edges | k·n^{1+1/k} |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, n := range ns {
		for _, k := range []int{2, 3} {
			g := graph.Complete(n)
			var worstStretch, avgEdges float64
			const runs = 3
			for seed := int64(0); seed < runs; seed++ {
				res := spanner.Run(g, nil, nil, k, spanner.Options{
					MarkRand: rand.New(rand.NewSource(seed)),
					EdgeRand: rand.New(rand.NewSource(seed + 50)),
				})
				s := g.Subgraph(res.FPlus)
				if st := graph.Stretch(g, s); st > worstStretch {
					worstStretch = st
				}
				avgEdges += float64(len(res.FPlus)) / runs
			}
			bound := float64(k) * math.Pow(float64(n), 1+1/float64(k))
			fmt.Printf("| K%d | %d | %d | %d | %.2f | %.0f | %.0f |\n",
				n, n, k, 2*k-1, worstStretch, avgEdges, bound)
		}
	}
	return nil
}

// e2: spanner rounds vs Lemma 3.2.
func e2(ctx context.Context, quick bool) error {
	header("e2", "Lemma 3.2: rounds O(k·n^{1/k}(log n + log W))")
	ns := []int{16, 32, 64}
	if quick {
		ns = []int{16, 32}
	}
	fmt.Println("| n | k | measured rounds | k·n^{1/k}·log n |")
	fmt.Println("|---|---|---|---|")
	for _, n := range ns {
		k := 3
		g := graph.Complete(n)
		net := bcNet(g)
		spanner.Run(g, nil, nil, k, spanner.Options{
			MarkRand: rand.New(rand.NewSource(1)),
			EdgeRand: rand.New(rand.NewSource(2)),
			Net:      net,
		})
		bound := float64(k) * math.Pow(float64(n), 1/float64(k)) * math.Log2(float64(n))
		fmt.Printf("| %d | %d | %d | %.0f |\n", n, k, net.Rounds(), bound)
	}
	return nil
}

// e3: sparsifier quality/size/rounds vs Theorem 1.2.
func e3(ctx context.Context, quick bool) error {
	header("e3", "Theorem 1.2: (1±ε) quality band, size, BC rounds")
	ns := []int{24, 32, 48}
	if quick {
		ns = []int{24, 32}
	}
	fmt.Println("| n | m | t | kept | band lo | band hi | rounds |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, n := range ns {
		rnd := rand.New(rand.NewSource(int64(n)))
		g := graph.RandomConnected(n, 0.6, 3, rnd)
		for _, t := range []int{1, 2, 4} {
			par := sparsify.Params{K: 4, T: t, Iterations: 6}
			net := bcNet(g)
			res := sparsify.Adhoc(g, par, rand.New(rand.NewSource(int64(n*10+t))), net)
			lo, hi := sparsify.Quality(g, res.H, 5, rand.New(rand.NewSource(5)))
			fmt.Printf("| %d | %d | %d | %d | %.3f | %.3f | %d |\n",
				n, g.M(), t, res.H.M(), lo, hi, res.Rounds)
		}
	}
	return nil
}

// e4: Lemma 3.3 distributional equality.
func e4(ctx context.Context, quick bool) error {
	header("e4", "Lemma 3.3: ad-hoc ≡ a-priori output distribution")
	trials := 400
	if quick {
		trials = 100
	}
	g := graph.Cycle(8)
	for i := 0; i < 4; i++ {
		if _, err := g.AddEdge(i, i+4, 1); err != nil {
			return err
		}
	}
	par := sparsify.Params{K: 2, T: 1, Iterations: 3}
	var sizeA, sizeB float64
	for i := 0; i < trials; i++ {
		ra := sparsify.Adhoc(g, par, rand.New(rand.NewSource(int64(2*i+1))), nil)
		rb := sparsify.Apriori(g, par, rand.New(rand.NewSource(int64(2*i+2))))
		sizeA += float64(ra.H.M())
		sizeB += float64(rb.H.M())
	}
	fmt.Printf("| algorithm | mean sparsifier size over %d trials |\n|---|---|\n", trials)
	fmt.Printf("| ad-hoc (Alg 5) | %.3f |\n", sizeA/float64(trials))
	fmt.Printf("| a-priori (Alg 4) | %.3f |\n", sizeB/float64(trials))
	return nil
}

// e5: Laplacian solver iterations/rounds vs Theorem 1.3.
func e5(ctx context.Context, quick bool) error {
	header("e5", "Theorem 1.3: O(log 1/ε) iterations; per-instance ≪ preprocessing rounds")
	g := graph.Grid(6, 6)
	net, err := sim.NewNetwork(sim.Config{N: g.N(), Mode: sim.ModeBCC})
	if err != nil {
		return err
	}
	s, err := lapsolver.New(g, lapsolver.Config{Rand: rand.New(rand.NewSource(1)), Net: net})
	if err != nil {
		return err
	}
	rnd := rand.New(rand.NewSource(2))
	b := make([]float64, g.N())
	for i := range b {
		b[i] = rnd.NormFloat64()
	}
	b = linalg.ProjectOutOnes(b)
	want, err := lapsolver.SolveExact(g, b)
	if err != nil {
		return err
	}
	normX := math.Sqrt(linalg.LaplacianQuadForm(g.WEdges(), want))
	fmt.Printf("preprocessing rounds: %d\n\n", s.PreprocessRounds)
	fmt.Println("| ε | iterations | rounds | ‖x−y‖_L / ‖x‖_L |")
	fmt.Println("|---|---|---|---|")
	epss := []float64{1e-2, 1e-4, 1e-6, 1e-8}
	if quick {
		epss = []float64{1e-2, 1e-6}
	}
	for _, eps := range epss {
		y, st, err := s.SolveCtx(ctx, b, eps)
		if err != nil {
			return err
		}
		rel := lapsolver.ErrorInLNorm(g, want, y) / normX
		fmt.Printf("| %.0e | %d | %d | %.2e |\n", eps, st.Iterations, st.Rounds, rel)
	}
	return nil
}

// e6: leverage scores, JL vs exact.
func e6(ctx context.Context, quick bool) error {
	header("e6", "Lemma 4.5: Kane–Nelson leverage scores within (1±η)")
	rnd := rand.New(rand.NewSource(3))
	m, n := 60, 6
	if quick {
		m = 30
	}
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
		return err
	}
	exact, err := jl.LeverageScoresExact(mul, m, n, solve)
	if err != nil {
		return err
	}
	fmt.Println("| sketch dim k | max relative error | solves (vs n exact) |")
	fmt.Println("|---|---|---|")
	for _, k := range []int{8, 16, 32, 64} {
		sk, err := jl.NewKaneNelson(k, m, 0, int64(k))
		if err != nil {
			return err
		}
		approx, err := jl.LeverageScoresApprox(mul, mulT, m, n, solve, sk)
		if err != nil {
			return err
		}
		var worst float64
		for i := range exact {
			if exact[i] < 1e-9 {
				continue
			}
			if r := math.Abs(approx[i]-exact[i]) / exact[i]; r > worst {
				worst = r
			}
		}
		fmt.Printf("| %d | %.3f | %d vs %d |\n", sk.K(), worst, sk.K(), n)
	}
	return nil
}

// e7: mixed-ball projection correctness + round scaling.
func e7(ctx context.Context, quick bool) error {
	header("e7", "Lemma 4.10: projection rounds grow polylog in m")
	ms := []int{64, 256, 1024}
	if quick {
		ms = []int{64, 256}
	}
	fmt.Println("| m | rounds | naive (≈ m) |")
	fmt.Println("|---|---|---|")
	for _, m := range ms {
		rnd := rand.New(rand.NewSource(int64(m)))
		a := make([]float64, m)
		l := make([]float64, m)
		for i := range a {
			a[i] = rnd.NormFloat64()
			l[i] = 0.5 + rnd.Float64()
		}
		net, err := sim.NewNetwork(sim.Config{N: m, Mode: sim.ModeBCC})
		if err != nil {
			return err
		}
		lp.ProjectMixedBall(a, l, net)
		fmt.Printf("| %d | %d | %d |\n", m, net.Rounds(), m)
	}
	return nil
}

// e8: LP path steps ∝ √n.
func e8(ctx context.Context, quick bool) error {
	header("e8", "Theorem 1.4: path steps = Õ(√n·log(U/ε))")
	ns := []int{1, 4, 9, 16}
	if quick {
		ns = []int{1, 4, 9}
	}
	fmt.Println("| n | path steps | steps/√n |")
	fmt.Println("|---|---|---|")
	for _, n := range ns {
		m := 3 * n
		var ts []linalg.Triple
		c := make([]float64, m)
		for blk := 0; blk < n; blk++ {
			for j := 0; j < 3; j++ {
				row := 3*blk + j
				ts = append(ts, linalg.Triple{Row: row, Col: blk, Val: 1})
				c[row] = float64(j + 1)
			}
		}
		prob := &lp.Problem{
			A: linalg.NewCSR(m, n, ts),
			B: linalg.Ones(n),
			C: c,
			L: make([]float64, m),
			U: linalg.Ones(m),
		}
		sol, err := lp.Solve(prob, linalg.Constant(m, 1.0/3), 0.1, lp.Params{Seed: 1})
		if err != nil {
			return err
		}
		fmt.Printf("| %d | %d | %.1f |\n", n, sol.PathSteps, float64(sol.PathSteps)/math.Sqrt(float64(n)))
	}
	return nil
}

// e9: exact min-cost max-flow, LP pipeline vs SSP.
func e9(ctx context.Context, quick bool) error {
	header("e9", "Theorem 1.1: exact MCMF via the LP pipeline (vs SSP baseline)")
	trials := 6
	if quick {
		trials = 3
	}
	fmt.Println("| trial | n | m | value | cost | = baseline | LP path steps |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for trial := 0; trial < trials; trial++ {
		rnd := rand.New(rand.NewSource(int64(trial + 1)))
		d := graph.RandomFlowNetwork(6, 0.3, 3, 3, rnd)
		wantV, wantC, _, err := flow.MinCostMaxFlowSSP(d, 0, d.N()-1)
		if err != nil {
			return err
		}
		res, err := flow.MinCostMaxFlowCtx(ctx, d, 0, d.N()-1, flow.Options{
			Backend: flowBackend,
			Rand:    rand.New(rand.NewSource(int64(trial + 100))),
		})
		if err != nil {
			return err
		}
		match := "yes"
		if res.Value != wantV || res.Cost != wantC {
			match = "NO"
		}
		fmt.Printf("| %d | %d | %d | %d | %d | %s | %d |\n",
			trial, d.N(), d.M(), res.Value, res.Cost, match, res.LPStats.PathSteps)
	}
	return nil
}

// e10: Gremban reduction accuracy.
func e10(ctx context.Context, quick bool) error {
	header("e10", "Lemma 5.1: SDD solving through the 2n-vertex Laplacian reduction")
	ns := []int{8, 16, 32}
	if quick {
		ns = []int{8, 16}
	}
	fmt.Println("| n | relative error vs dense |")
	fmt.Println("|---|---|")
	for _, n := range ns {
		rnd := rand.New(rand.NewSource(int64(n)))
		g := graph.RandomConnected(n, 0.4, 3, rnd)
		m := g.Laplacian().Dense()
		for i := 0; i < n; i++ {
			m.Inc(i, i, 0.5+rnd.Float64())
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = rnd.NormFloat64()
		}
		want, err := m.Solve(y)
		if err != nil {
			return err
		}
		got, _, err := lapsolver.SDDSolve(context.Background(), m, y, lapsolver.CGLapSolve)
		if err != nil {
			return err
		}
		rel := linalg.Norm2(linalg.Sub(got, want)) / (1 + linalg.Norm2(want))
		fmt.Printf("| %d | %.2e |\n", n, rel)
	}
	return nil
}

// e11: bundle size ablation.
func e11(ctx context.Context, quick bool) error {
	header("e11", "Ablation: bundle size t vs sparsifier size and quality")
	rnd := rand.New(rand.NewSource(11))
	n := 40
	if quick {
		n = 28
	}
	g := graph.RandomConnected(n, 0.6, 2, rnd)
	fmt.Println("| t | kept edges | band lo | band hi |")
	fmt.Println("|---|---|---|---|")
	for _, t := range []int{1, 2, 4, 8} {
		par := sparsify.Params{K: 4, T: t, Iterations: 6}
		res := sparsify.Adhoc(g, par, rand.New(rand.NewSource(int64(t))), nil)
		lo, hi := sparsify.Quality(g, res.H, 5, rand.New(rand.NewSource(7)))
		fmt.Printf("| %d | %d | %.3f | %.3f |\n", t, res.H.M(), lo, hi)
	}
	return nil
}

// e15: AᵀDA backend comparison — identical certified flows, wall-clock per
// backend (the table EXPERIMENTS.md records for the LinOp refactor).
func e15(ctx context.Context, quick bool) error {
	header("e15", "Backend registry: identical certified (value, cost), per-backend wall-clock")
	ns := []int{6, 10, 14}
	if quick {
		ns = []int{6, 10}
	}
	fmt.Println("| n | m | backend | value | cost | = baseline | time |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, n := range ns {
		rnd := rand.New(rand.NewSource(int64(n)))
		d := graph.RandomFlowNetwork(n, 0.3, 3, 3, rnd)
		wantV, wantC, _, err := flow.MinCostMaxFlowSSP(d, 0, d.N()-1)
		if err != nil {
			return err
		}
		for _, backend := range lp.Backends() {
			start := time.Now()
			res, err := flow.MinCostMaxFlowCtx(ctx, d, 0, d.N()-1, flow.Options{
				Backend: backend,
				Rand:    rand.New(rand.NewSource(int64(n * 100))),
			})
			if err != nil {
				return fmt.Errorf("backend %s: %w", backend, err)
			}
			match := "yes"
			if res.Value != wantV || res.Cost != wantC {
				match = "NO"
			}
			fmt.Printf("| %d | %d | %s | %d | %d | %s | %v |\n",
				d.N(), d.M(), backend, res.Value, res.Cost, match, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// e12: orientation out-degree vs naive globalization.
func e12(ctx context.Context, quick bool) error {
	header("e12", "Theorem 1.2's orientation: globalization rounds = max out-degree")
	ns := []int{24, 40}
	if quick {
		ns = []int{24}
	}
	fmt.Println("| n | sparsifier edges (naive rounds) | max out-degree (oriented rounds) |")
	fmt.Println("|---|---|---|")
	for _, n := range ns {
		g := graph.Complete(n)
		par := sparsify.Params{K: 4, T: 2, Iterations: 6}
		res := sparsify.Adhoc(g, par, rand.New(rand.NewSource(int64(n))), nil)
		fmt.Printf("| %d | %d | %d |\n", n, res.H.M(), res.MaxOutDegree())
	}
	return nil
}

// e17: session amortization — one-shot flow solve vs flow.Solver batch
// with warm starts, per backend (the "Sessions & reuse" table of
// EXPERIMENTS.md; BENCH_session.json snapshots the same comparison).
func e17(ctx context.Context, quick bool) error {
	header("e17", "Session API: batch per-query time vs one-shot, identical certified results")
	batchLen := 6
	if quick {
		batchLen = 4
	}
	rnd := rand.New(rand.NewSource(18))
	d := graph.RandomFlowNetwork(6, 0.3, 3, 3, rnd)
	s, t := 0, d.N()-1
	wantV, wantC, _, err := flow.MinCostMaxFlowSSP(d, s, t)
	if err != nil {
		return err
	}
	fmt.Println("| backend | one-shot | batch/query | speedup | warm | = baseline |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, backend := range lp.Backends() {
		start := time.Now()
		one, err := flow.MinCostMaxFlowCtx(ctx, d, s, t, flow.Options{Backend: backend, Seed: flow.SeedOf(18)})
		if err != nil {
			return fmt.Errorf("backend %s: %w", backend, err)
		}
		oneShot := time.Since(start)
		fs, err := flow.NewSolver(d, flow.Options{Backend: backend, Seed: flow.SeedOf(18)})
		if err != nil {
			return err
		}
		queries := make([]flow.Query, batchLen)
		for i := range queries {
			queries[i] = flow.Query{S: s, T: t}
		}
		start = time.Now()
		results, err := fs.SolveBatch(ctx, queries)
		if err != nil {
			return fmt.Errorf("backend %s batch: %w", backend, err)
		}
		perQuery := time.Since(start) / time.Duration(batchLen)
		warm := 0
		match := "yes"
		for _, r := range results {
			if r.WarmStarted {
				warm++
			}
			if r.Value != wantV || r.Cost != wantC {
				match = "NO"
			}
		}
		if one.Value != wantV || one.Cost != wantC {
			match = "NO"
		}
		fmt.Printf("| %s | %v | %v | %.0fx | %d/%d | %s |\n",
			backend, oneShot.Round(time.Millisecond), perQuery.Round(time.Microsecond),
			float64(oneShot)/float64(max(perQuery, 1)), warm, batchLen, match)
	}
	return nil
}

// e19: combinatorial preconditioning — full certified queries through
// csr-cg (Jacobi only) vs csr-pcg (spanner-built spanning-forest
// incomplete Cholesky, symbolic structure reused across IPM steps and
// queries): total inner CG iterations, preconditioner counters and wall
// clock per query (the table EXPERIMENTS.md §e19 records;
// BENCH_precond.json snapshots the same comparison with its gates).
func e19(ctx context.Context, quick bool) error {
	header("e19", "Combinatorial preconditioning: csr-pcg vs csr-cg inner iterations per query")
	ns := []int{8, 12}
	if quick {
		ns = []int{8}
	}
	fmt.Println("| n | m | backend | cg iters | path steps | builds | refreshes | = baseline | time |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, n := range ns {
		rnd := rand.New(rand.NewSource(int64(n)))
		d := graph.RandomFlowNetwork(n, 0.1, 3, 3, rnd)
		wantV, wantC, _, err := flow.MinCostMaxFlowSSP(d, 0, d.N()-1)
		if err != nil {
			return err
		}
		for _, backend := range []string{"csr-cg", "csr-pcg"} {
			fs, err := flow.NewSolver(d, flow.Options{Backend: backend, Seed: flow.SeedOf(18)})
			if err != nil {
				return err
			}
			start := time.Now()
			res, err := fs.Solve(ctx, 0, d.N()-1)
			if err != nil {
				return fmt.Errorf("backend %s: %w", backend, err)
			}
			match := "yes"
			if res.Value != wantV || res.Cost != wantC {
				match = "NO"
			}
			fmt.Printf("| %d | %d | %s | %d | %d | %d | %d | %s | %v |\n",
				d.N(), d.M(), backend, res.LPStats.CGIterations, res.LPStats.PathSteps,
				res.LPStats.PrecondBuilds, res.LPStats.PrecondRefreshes, match,
				time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// e20: multi-tenant service layer — two named tenants behind one
// bcclap.Service, a repeat-heavy production stream per tenant, and the
// certified-result cache in front of each pooled solver: hit counts,
// per-query wall clock cached vs uncached vs the single-tenant PR-3
// baseline, and the swap-invalidation behavior (the table EXPERIMENTS.md
// §e20 records; TestBenchServiceSnapshot gates it in CI).
func e20(ctx context.Context, quick bool) error {
	header("e20", "Service layer: multi-tenant certified-result cache vs single-tenant baseline")
	repeats := 4
	if quick {
		repeats = 2
	}
	type tenant struct {
		name string
		d    *graph.Digraph
	}
	tenants := []tenant{
		{"tenant-a", graph.RandomFlowNetwork(6, 0.35, 3, 3, rand.New(rand.NewSource(19)))},
		{"tenant-b", graph.RandomFlowNetwork(6, 0.35, 3, 3, rand.New(rand.NewSource(20)))},
	}
	streams := map[string][]bcclap.FlowQuery{}
	for _, tn := range tenants {
		var pairs []bcclap.FlowQuery
		for s := 0; s < tn.d.N() && len(pairs) < 3; s++ {
			for t := tn.d.N() - 1; t > s && len(pairs) < 3; t-- {
				if v, _, _, err := flow.MinCostMaxFlowSSP(tn.d, s, t); err == nil && v > 0 {
					pairs = append(pairs, bcclap.FlowQuery{S: s, T: t})
				}
			}
		}
		var stream []bcclap.FlowQuery
		for r := 0; r < repeats; r++ {
			stream = append(stream, pairs...)
		}
		streams[tn.name] = stream
	}

	fmt.Println("| tenant | round | queries | hits | per-query | = baseline |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, cached := range []bool{false, true} {
		size := 0
		if cached {
			size = bcclap.DefaultCacheSize
		}
		svc := bcclap.NewService(bcclap.WithSeed(7), bcclap.WithPoolSize(2), bcclap.WithCacheSize(size))
		for _, tn := range tenants {
			h, err := svc.Register(tn.name, tn.d)
			if err != nil {
				return err
			}
			baseline, err := bcclap.NewFlowSolver(tn.d, bcclap.WithSeed(7), bcclap.WithPoolSize(2))
			if err != nil {
				return err
			}
			want, err := baseline.SolveBatch(ctx, streams[tn.name])
			if err != nil {
				return err
			}
			baseline.Close()
			for round := 1; round <= 2; round++ {
				before := h.Stats().Cache.Hits
				start := time.Now()
				got, err := h.SolveBatch(ctx, streams[tn.name])
				if err != nil {
					return err
				}
				perQuery := time.Since(start) / time.Duration(len(got))
				match := "yes"
				for i := range got {
					if got[i].Value != want[i].Value || got[i].Cost != want[i].Cost {
						match = "NO"
					}
				}
				label := fmt.Sprintf("%s (uncached)", tn.name)
				if cached {
					label = fmt.Sprintf("%s (cache %d)", tn.name, size)
				}
				fmt.Printf("| %s | %d | %d | %d | %v | %s |\n",
					label, round, len(got), h.Stats().Cache.Hits-before,
					perQuery.Round(time.Microsecond), match)
			}
		}
		if cached {
			// Demonstrate whole-tenant invalidation: swap tenant-a and show
			// its next round is cold again while tenant-b stays hot.
			a, err := svc.Get("tenant-a")
			if err != nil {
				return err
			}
			if err := a.Swap(graph.RandomFlowNetwork(6, 0.35, 3, 3, rand.New(rand.NewSource(21)))); err != nil {
				return err
			}
			st := svc.ServiceStats()
			fmt.Printf("\nafter Swap(tenant-a): version=%d, invalidations=%d, tenant-b entries kept=%d\n",
				st.PerNetwork[0].Version, st.PerNetwork[0].Cache.Invalidations, st.PerNetwork[1].Cache.Entries)
		}
		svc.Close()
	}
	return nil
}

// e21: durable tenant state — the WAL append tax per journaled mutation
// (fsync'd vs buffered), recovery wall-clock against tenant count, and
// the arc-level patch path against the full swap it replaces, with the
// selective cache invalidation it enables (the table EXPERIMENTS.md §e21
// records; TestBenchStoreSnapshot gates it in CI).
func e21(ctx context.Context, quick bool) error {
	header("e21", "Durable store: WAL append tax, recovery scaling, patch vs swap")
	recs := 256
	counts := []int{1, 4, 8}
	if quick {
		recs = 64
		counts = []int{1, 4}
	}
	d := graph.RandomFlowNetwork(6, 0.35, 3, 3, rand.New(rand.NewSource(23)))
	deltas := []bcclap.ArcDelta{{Arc: 0, CapDelta: 1, CostDelta: 1}, {Arc: d.M() - 1, CostDelta: 1}}

	// WAL append tax per record, with and without fsync.
	fmt.Println("| fsync | records | ns/record |")
	fmt.Println("|---|---|---|")
	for _, pol := range []struct {
		name string
		sync store.SyncPolicy
	}{{"always", store.SyncAlways}, {"never", store.SyncNever}} {
		dir, err := os.MkdirTemp("", "bcclap-e21-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		lg, err := store.Open(dir, store.Options{Sync: pol.sync, SnapshotEvery: -1})
		if err != nil {
			return err
		}
		reg := store.Record{
			Type: store.RecRegister, Name: "t", Version: 1,
			Opts: store.TenantOpts{Backend: "dense", Tol: 1e-6}, N: d.N(), Arcs: d.Arcs(),
		}
		if err := lg.Append(reg); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < recs; i++ {
			rec := store.Record{Type: store.RecPatch, Name: "t", Version: uint64(i) + 2, Deltas: deltas}
			if err := lg.Append(rec); err != nil {
				return err
			}
		}
		perRec := time.Since(start).Nanoseconds() / int64(recs)
		lg.Close()
		fmt.Printf("| %s | %d | %d |\n", pol.name, recs, perRec)
	}

	// Recovery wall-clock vs tenant count.
	fmt.Println("\n| tenants | recovery | per tenant |")
	fmt.Println("|---|---|---|")
	for _, n := range counts {
		dir, err := os.MkdirTemp("", "bcclap-e21-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		svc, err := bcclap.OpenService(bcclap.WithStore(dir), bcclap.WithSeed(7), bcclap.WithPoolSize(1))
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			dt := graph.RandomFlowNetwork(5, 0.35, 3, 3, rand.New(rand.NewSource(60+int64(i))))
			if _, err := svc.Register(fmt.Sprintf("t%d", i), dt); err != nil {
				return err
			}
		}
		if err := svc.Drain(ctx); err != nil {
			return err
		}
		start := time.Now()
		re, err := bcclap.OpenService(bcclap.WithStore(dir), bcclap.WithSeed(7), bcclap.WithPoolSize(1))
		if err != nil {
			return err
		}
		wall := time.Since(start)
		if got := len(re.Names()); got != n {
			re.Close()
			return fmt.Errorf("recovered %d tenants, want %d", got, n)
		}
		re.Close()
		fmt.Printf("| %d | %v | %v |\n", n, wall.Round(time.Microsecond), (wall / time.Duration(n)).Round(time.Microsecond))
	}

	// Patch vs swap on a live tenant, resolve included, plus the cache
	// behavior the patch path preserves.
	svc := bcclap.NewService(bcclap.WithSeed(7), bcclap.WithPoolSize(1))
	defer svc.Close()
	h, err := svc.Register("prod", d)
	if err != nil {
		return err
	}
	if _, err := h.Solve(ctx, 0, d.N()-1); err != nil {
		return err
	}
	start := time.Now()
	if err := h.PatchArcs(deltas); err != nil {
		return err
	}
	res, err := h.Solve(ctx, 0, d.N()-1)
	if err != nil {
		return err
	}
	patchWall := time.Since(start)
	patched := d.Clone()
	if err := patched.ApplyDeltas(deltas); err != nil {
		return err
	}
	start = time.Now()
	if err := h.Swap(patched); err != nil {
		return err
	}
	if _, err := h.Solve(ctx, 0, d.N()-1); err != nil {
		return err
	}
	swapWall := time.Since(start)
	fmt.Println("\n| path | mutate+resolve | warm started | path steps |")
	fmt.Println("|---|---|---|---|")
	fmt.Printf("| PatchArcs | %v | %v | %d |\n", patchWall.Round(time.Microsecond), res.Stats.WarmStarted, res.Stats.PathSteps)
	fmt.Printf("| Swap | %v | — (cold) | — |\n", swapWall.Round(time.Microsecond))
	fmt.Printf("\npatch speedup vs swap: %.1f×\n", float64(swapWall)/float64(patchWall))
	return nil
}

// e22: per-tenant QoS and telemetry — a flooded, rate-limited tenant
// next to a quiet one on the same service: the quiet tenant's latency
// quantiles with and without the flood, the noisy tenant's goodput vs
// rejection count, and the telemetry tax on the cached hot path (the
// table EXPERIMENTS.md §e22 records; TestBenchQoSSnapshot gates it in
// CI).
func e22(ctx context.Context, quick bool) error {
	header("e22", "QoS: admission gate isolates tenants; telemetry rides the hot path for free")
	solves := 200
	if quick {
		solves = 60
	}
	dQuiet := graph.RandomFlowNetwork(6, 0.35, 3, 3, rand.New(rand.NewSource(29)))
	dNoisy := graph.RandomFlowNetwork(4, 0.5, 3, 3, rand.New(rand.NewSource(30)))

	svc := bcclap.NewService(bcclap.WithSeed(7), bcclap.WithPoolSize(2))
	defer svc.Close()
	quiet, err := svc.Register("quiet", dQuiet, bcclap.WithCacheSize(0))
	if err != nil {
		return err
	}
	noisy, err := svc.Register("noisy", dNoisy, bcclap.WithCacheSize(0))
	if err != nil {
		return err
	}
	// Warm both pools to steady state, then gate the noisy tenant the way
	// an operator would: at runtime, through SetLimits.
	for i := 0; i < 6; i++ {
		if _, err := quiet.Solve(ctx, 0, dQuiet.N()-1); err != nil {
			return err
		}
		if _, err := noisy.Solve(ctx, 0, dNoisy.N()-1); err != nil {
			return err
		}
	}
	limits := bcclap.Limits{RatePerSec: 5, Burst: 1, MaxInFlight: 1, QueueDepth: 2}
	if err := noisy.SetLimits(limits); err != nil {
		return err
	}

	quantile := func(ds []time.Duration, p float64) time.Duration {
		s := append([]time.Duration(nil), ds...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[int(p*float64(len(s)-1))]
	}
	runQuiet := func() ([]time.Duration, error) {
		lat := make([]time.Duration, solves)
		for i := range lat {
			start := time.Now()
			if _, err := quiet.Solve(ctx, 0, dQuiet.N()-1); err != nil {
				return nil, err
			}
			lat[i] = time.Since(start)
		}
		return lat, nil
	}

	base, err := runQuiet()
	if err != nil {
		return err
	}
	var completed, rejected atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var floodErr atomic.Value
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
				if _, err := noisy.Solve(ctx, 0, dNoisy.N()-1); err != nil {
					if !errors.Is(err, bcclap.ErrOverloaded) {
						floodErr.Store(err)
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
	// Wait for the flood to engage (first rejection) before measuring:
	// on a single-P runtime the quiet loop's channel ping-pong with the
	// pool workers can otherwise keep the flood goroutines parked.
	for deadline := time.Now().Add(10 * time.Second); rejected.Load() == 0; {
		if time.Now().After(deadline) {
			return fmt.Errorf("e22: flood produced no rejection within 10s")
		}
		if e := floodErr.Load(); e != nil {
			return fmt.Errorf("e22: flood error: %v", e)
		}
		time.Sleep(time.Millisecond)
	}
	floodStart := time.Now()
	flood, err := runQuiet()
	window := time.Since(floodStart)
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	if e := floodErr.Load(); e != nil {
		return e.(error)
	}

	fmt.Printf("noisy limits (SetLimits at runtime): %+v\n\n", limits)
	fmt.Println("| quiet tenant | p50 | p99 |")
	fmt.Println("|---|---|---|")
	fmt.Printf("| unloaded | %v | %v |\n",
		quantile(base, 0.5).Round(time.Microsecond), quantile(base, 0.99).Round(time.Microsecond))
	fmt.Printf("| 8-goroutine flood on noisy | %v | %v |\n",
		quantile(flood, 0.5).Round(time.Microsecond), quantile(flood, 0.99).Round(time.Microsecond))
	ad := noisy.Stats().Admission
	fmt.Printf("\nnoisy under flood: %d admitted solves (%.1f/s goodput), %d rejected (queue_full=%d deadline=%d), retry-after hint %v\n",
		completed.Load(), float64(completed.Load())/window.Seconds(), rejected.Load(),
		ad.RejectedQueueFull, ad.RejectedDeadline, noisy.RetryAfter().Round(time.Millisecond))

	// Telemetry tax: pure cache hits, registry on vs off.
	fmt.Println("\n| cached hot path | hits/s |")
	fmt.Println("|---|---|")
	for _, on := range []bool{true, false} {
		s := bcclap.NewService(bcclap.WithSeed(7), bcclap.WithPoolSize(1), bcclap.WithTelemetry(on))
		h, err := s.Register("bench", dQuiet)
		if err != nil {
			s.Close()
			return err
		}
		if _, err := h.Solve(ctx, 0, dQuiet.N()-1); err != nil {
			s.Close()
			return err
		}
		const hits = 20000
		best := time.Hour
		for r := 0; r < 5; r++ {
			start := time.Now()
			for i := 0; i < hits; i++ {
				if _, err := h.Solve(ctx, 0, dQuiet.N()-1); err != nil {
					s.Close()
					return err
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		label := "telemetry on"
		if !on {
			label = "telemetry off"
		}
		fmt.Printf("| %s | %.0f |\n", label, float64(hits)/best.Seconds())
		s.Close()
	}
	return nil
}
