package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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
)

// e1 measures Lemma 3.1 on K_n: the worst stretch (≤ 2k−1) and mean size
// (O(k·n^{1+1/k})) of the spanner over three seeds.
func e1(ctx context.Context, quick bool) ([]Table, error) {
	t := newTable("", "graph|n|k|2k-1|stretch|edges|k·n^{1+1/k}")
	for _, n := range pick(quick, []int{16, 32, 48}, []int{16, 32}) {
		for _, k := range []int{2, 3} {
			g := graph.Complete(n)
			var stretch, edges float64
			const runs = 3
			for seed := int64(0); seed < runs; seed++ {
				res := spanner.Run(g, nil, nil, k, spanner.Options{
					MarkRand: rand.New(rand.NewSource(seed)),
					EdgeRand: rand.New(rand.NewSource(seed + 50)),
				})
				stretch = max(stretch, graph.Stretch(g, g.Subgraph(res.FPlus)))
				edges += float64(len(res.FPlus)) / runs
			}
			t.row("K%d|%d|%d|%d|%.2f|%.0f|%.0f", n, n, k, 2*k-1, stretch, edges, float64(k)*math.Pow(float64(n), 1+1/float64(k)))
		}
	}
	return []Table{*t}, nil
}

// e2 measures Lemma 3.2: spanner rounds O(k·n^{1/k}(log n + log W)).
func e2(ctx context.Context, quick bool) ([]Table, error) {
	t := newTable("", "n|k|measured rounds|k·n^{1/k}·log n")
	for _, n := range pick(quick, []int{16, 32, 64}, []int{16, 32}) {
		k := 3
		g := graph.Complete(n)
		net, err := sim.NewNetwork(g.N())
		if err != nil {
			return nil, err
		}
		spanner.Run(g, nil, nil, k, spanner.Options{
			MarkRand: rand.New(rand.NewSource(1)),
			EdgeRand: rand.New(rand.NewSource(2)),
			Net:      net,
		})
		t.row("%d|%d|%d|%.0f", n, k, net.Rounds(), float64(k)*math.Pow(float64(n), 1/float64(k))*math.Log2(float64(n)))
	}
	return []Table{*t}, nil
}

// e3 measures Theorem 1.2: sparsifier quality band, size and rounds.
func e3(ctx context.Context, quick bool) ([]Table, error) {
	tab := newTable("", "n|m|t|kept|band lo|band hi|rounds")
	for _, n := range pick(quick, []int{24, 32, 48}, []int{24, 32}) {
		g := graph.RandomConnected(n, 0.6, 3, rand.New(rand.NewSource(int64(n))))
		for _, t := range []int{1, 2, 4} {
			net, err := sim.NewNetwork(g.N())
			if err != nil {
				return nil, err
			}
			res := sparsify.Adhoc(g, sparsify.Params{K: 4, T: t, Iterations: 6}, rand.New(rand.NewSource(int64(n*10+t))), net)
			lo, hi := sparsify.Quality(g, res.H, 5, rand.New(rand.NewSource(5)))
			tab.row("%d|%d|%d|%d|%.3f|%.3f|%d", n, g.M(), t, res.H.M(), lo, hi, res.Rounds)
		}
	}
	return []Table{*tab}, nil
}

// e4 measures Lemma 3.3: ad-hoc and a-priori sampling have the same output
// distribution, compared through the mean sparsifier size.
func e4(ctx context.Context, quick bool) ([]Table, error) {
	trials := pick(quick, 400, 100)
	g := graph.Cycle(8)
	for i := 0; i < 4; i++ {
		if _, err := g.AddEdge(i, i+4, 1); err != nil {
			return nil, err
		}
	}
	par := sparsify.Params{K: 2, T: 1, Iterations: 3}
	var sizeA, sizeB float64
	for i := 0; i < trials; i++ {
		sizeA += float64(sparsify.Adhoc(g, par, rand.New(rand.NewSource(int64(2*i+1))), nil).H.M())
		sizeB += float64(sparsify.Apriori(g, par, rand.New(rand.NewSource(int64(2*i+2)))).H.M())
	}
	t := newTable("", "algorithm|trials|mean sparsifier size")
	t.row("ad-hoc (Alg 5)|%d|%.3f", trials, sizeA/float64(trials))
	t.row("a-priori (Alg 4)|%d|%.3f", trials, sizeB/float64(trials))
	return []Table{*t}, nil
}

// e5 measures Theorem 1.3: O(log 1/ε) iterations per instance, far below
// the preprocessing rounds.
func e5(ctx context.Context, quick bool) ([]Table, error) {
	g := graph.Grid(6, 6)
	net, err := sim.NewNetwork(g.N())
	if err != nil {
		return nil, err
	}
	s, err := lapsolver.New(g, lapsolver.Config{Rand: rand.New(rand.NewSource(1)), Net: net})
	if err != nil {
		return nil, err
	}
	rnd := rand.New(rand.NewSource(2))
	b := make([]float64, g.N())
	for i := range b {
		b[i] = rnd.NormFloat64()
	}
	b = linalg.ProjectOutOnes(b)
	want, err := lapsolver.SolveExact(g, b)
	if err != nil {
		return nil, err
	}
	normX := math.Sqrt(linalg.LaplacianQuadForm(g.WEdges(), want))
	t := newTable(fmt.Sprintf("preprocessing rounds: %d", s.PreprocessRounds), "ε|iterations|rounds|‖x−y‖_L / ‖x‖_L")
	for _, eps := range pick(quick, []float64{1e-2, 1e-4, 1e-6, 1e-8}, []float64{1e-2, 1e-6}) {
		y, st, err := s.SolveCtx(ctx, b, eps)
		if err != nil {
			return nil, err
		}
		t.row("%.0e|%d|%d|%.2e", eps, st.Iterations, st.Rounds, lapsolver.ErrorInLNorm(g, want, y)/normX)
	}
	return []Table{*t}, nil
}

// e6 measures Lemma 4.5: Kane–Nelson leverage scores against the exact
// ones on a random tall matrix.
func e6(ctx context.Context, quick bool) ([]Table, error) {
	rnd := rand.New(rand.NewSource(3))
	m, n := pick(quick, 60, 30), 6
	var ts []linalg.Triple
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			ts = append(ts, linalg.Triple{Row: i, Col: j, Val: rnd.NormFloat64()})
		}
	}
	a := linalg.NewCSR(m, n, ts)
	d := linalg.Ones(m)
	gram := linalg.NewGramFactor(a)
	gram.Factor(d) // d² = d = 1: the Gram matrix of diag(d)·A
	solve := gram.Solve
	exact, err := jl.NewExactLeverage(a).Scores(d, solve)
	if err != nil {
		return nil, err
	}
	t := newTable("", "sketch dim k|max relative error|solves|exact solves (n)")
	for _, k := range []int{8, 16, 32, 64} {
		sk, err := jl.NewKaneNelson(k, m, 0, int64(k))
		if err != nil {
			return nil, err
		}
		approx, err := jl.LeverageScoresApprox(a, d, solve, sk)
		if err != nil {
			return nil, err
		}
		var worst float64
		for i := range exact {
			if exact[i] >= 1e-9 {
				worst = max(worst, math.Abs(approx[i]-exact[i])/exact[i])
			}
		}
		t.row("%d|%.3f|%d|%d", sk.K(), worst, sk.K(), n)
	}
	return []Table{*t}, nil
}

// e7 measures Lemma 4.10: mixed-ball projection rounds grow polylog in m.
// The naive column is m aggregate phases (one per coordinate) of the
// projection's own three-value message, each charged by the ledger.
func e7(ctx context.Context, quick bool) ([]Table, error) {
	t := newTable("", "m|rounds|naive rounds (m phases)")
	for _, m := range pick(quick, []int{64, 256, 1024}, []int{64, 256}) {
		rnd := rand.New(rand.NewSource(int64(m)))
		a := make([]float64, m)
		l := make([]float64, m)
		for i := range a {
			a[i] = rnd.NormFloat64()
			l[i] = 0.5 + rnd.Float64()
		}
		net, err := sim.NewNetwork(m)
		if err != nil {
			return nil, err
		}
		lp.ProjectMixedBall(a, l, net)
		naive, err := sim.NewNetwork(m)
		if err != nil {
			return nil, err
		}
		t.row("%d|%d|%d", m, net.Rounds(), m*naive.BroadcastAll(lp.SplitBits))
	}
	return []Table{*t}, nil
}

// e8 measures Theorem 1.4: LP path steps grow as √n, on n independent
// three-way assignment blocks.
func e8(ctx context.Context, quick bool) ([]Table, error) {
	t := newTable("", "n|path steps|steps/√n")
	for _, n := range pick(quick, []int{1, 4, 9, 16}, []int{1, 4, 9}) {
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
		prob := &lp.Problem{A: linalg.NewCSR(m, n, ts), B: linalg.Ones(n), C: c, L: make([]float64, m), U: linalg.Ones(m)}
		sess, err := lp.NewSession(prob)
		if err != nil {
			return nil, err
		}
		sol, err := sess.Solve(ctx, linalg.Constant(m, 1.0/3), 0.1, lp.Params{})
		if err != nil {
			return nil, err
		}
		t.row("%d|%d|%.1f", n, sol.PathSteps, float64(sol.PathSteps)/math.Sqrt(float64(n)))
	}
	return []Table{*t}, nil
}

// e9 measures Theorem 1.1: the LP pipeline's min-cost max-flow equals the
// successive-shortest-paths baseline exactly; any difference fails it.
func e9(ctx context.Context, quick bool) ([]Table, error) {
	t := newTable("", "trial|n|m|value|cost|LP path steps")
	for trial := 0; trial < pick(quick, 6, 3); trial++ {
		d := graph.RandomFlowNetwork(6, 0.3, 3, 3, rand.New(rand.NewSource(int64(trial+1))))
		wantV, wantC, _, err := flow.MinCostMaxFlowSSP(d, 0, d.N()-1)
		if err != nil {
			return nil, err
		}
		fs, err := flow.NewSolver(d, flow.Options{Seed: int64(trial + 100)})
		if err != nil {
			return nil, err
		}
		res, err := fs.Solve(ctx, flow.Query{S: 0, T: d.N() - 1}, false)
		if err != nil {
			return nil, err
		}
		if res.Value != wantV || res.Cost != wantC {
			return nil, fmt.Errorf("trial %d: LP pipeline (%d, %d), SSP baseline (%d, %d)", trial, res.Value, res.Cost, wantV, wantC)
		}
		t.row("%d|%d|%d|%d|%d|%d", trial, d.N(), d.M(), res.Value, res.Cost, res.LPStats.PathSteps)
	}
	return []Table{*t}, nil
}

// e10 measures Lemma 5.1: SDD systems solved through the 2n-vertex
// Laplacian reduction agree with a dense solve.
func e10(ctx context.Context, quick bool) ([]Table, error) {
	t := newTable("", "n|relative error vs dense")
	var sdd lapsolver.SDDSolver
	for _, n := range pick(quick, []int{8, 16, 32}, []int{8, 16}) {
		rnd := rand.New(rand.NewSource(int64(n)))
		m := graph.RandomConnected(n, 0.4, 3, rnd).Laplacian().Dense()
		for i := 0; i < n; i++ {
			m.Inc(i, i, 0.5+rnd.Float64())
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = rnd.NormFloat64()
		}
		want, err := m.Solve(y)
		if err != nil {
			return nil, err
		}
		got, _, err := sdd.Solve(ctx, m, y)
		if err != nil {
			return nil, err
		}
		t.row("%d|%.2e", n, linalg.Norm2(linalg.Sub(got, want))/(1+linalg.Norm2(want)))
	}
	return []Table{*t}, nil
}

// e11 is the bundle-size ablation: sparsifier size and quality against t.
func e11(ctx context.Context, quick bool) ([]Table, error) {
	g := graph.RandomConnected(pick(quick, 40, 28), 0.6, 2, rand.New(rand.NewSource(11)))
	tab := newTable("", "t|kept edges|band lo|band hi")
	for _, t := range []int{1, 2, 4, 8} {
		res := sparsify.Adhoc(g, sparsify.Params{K: 4, T: t, Iterations: 6}, rand.New(rand.NewSource(int64(t))), nil)
		lo, hi := sparsify.Quality(g, res.H, 5, rand.New(rand.NewSource(7)))
		tab.row("%d|%d|%.3f|%.3f", t, res.H.M(), lo, hi)
	}
	return []Table{*tab}, nil
}

// e12 measures Theorem 1.2's orientation: globalizing the sparsifier costs
// its max out-degree in rounds, not its edge count.
func e12(ctx context.Context, quick bool) ([]Table, error) {
	t := newTable("", "n|sparsifier edges (naive rounds)|max out-degree (oriented rounds)")
	for _, n := range pick(quick, []int{24, 40}, []int{24}) {
		res := sparsify.Adhoc(graph.Complete(n), sparsify.Params{K: 4, T: 2, Iterations: 6}, rand.New(rand.NewSource(int64(n))), nil)
		t.row("%d|%d|%d", n, res.H.M(), res.MaxOutDegree())
	}
	return []Table{*t}, nil
}

// e15 solves one certified flow per registered AᵀDA backend: every answer
// must equal the SSP baseline, only the wall clock differs.
func e15(ctx context.Context, quick bool) ([]Table, error) {
	t := newTable("", "n|m|backend|value|cost|time")
	for _, n := range pick(quick, []int{6, 10, 14}, []int{6, 10}) {
		d := graph.RandomFlowNetwork(n, 0.3, 3, 3, rand.New(rand.NewSource(int64(n))))
		wantV, wantC, _, err := flow.MinCostMaxFlowSSP(d, 0, d.N()-1)
		if err != nil {
			return nil, err
		}
		for _, backend := range lp.Backends() {
			start := time.Now()
			fs, err := flow.NewSolver(d, flow.Options{
				Backend: backend,
				Seed:    int64(n * 100),
			})
			if err != nil {
				return nil, fmt.Errorf("backend %s: %w", backend, err)
			}
			res, err := fs.Solve(ctx, flow.Query{S: 0, T: d.N() - 1}, false)
			if err != nil {
				return nil, fmt.Errorf("backend %s: %w", backend, err)
			}
			if res.Value != wantV || res.Cost != wantC {
				return nil, fmt.Errorf("backend %s, n = %d: (%d, %d), SSP baseline (%d, %d)", backend, n, res.Value, res.Cost, wantV, wantC)
			}
			t.row("%d|%d|%s|%d|%d|%v", d.N(), d.M(), backend, res.Value, res.Cost, time.Since(start).Round(time.Millisecond))
		}
	}
	return []Table{*t}, nil
}
