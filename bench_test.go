package bcclap_test

// One benchmark per paper experiment of EXPERIMENTS.md. The paper is a
// theory contribution without empirical tables, so each of
// BenchmarkE1–E14 measures the quantity a theorem bounds (or times one
// operation) and reports it via ReportMetric next to the bound. e15, the
// certified solve per AᵀDA backend, has no benchmark:
// cmd/bcclap-experiments prints its table, and bench/ times the served
// csr-pcg path through the daemon. EXPERIMENTS.md names the tests that
// hold the gates of the retired e16–e22.

import (
	"context"
	"math"
	"math/rand"
	"testing"

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
	k := 3
	var rounds float64
	for i := 0; i < b.N; i++ {
		net, err := sim.NewNetwork(g.N())
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
	par := sparsify.Params{K: 4, T: 2, Iterations: 6}
	var size, rounds float64
	for i := 0; i < b.N; i++ {
		net, err := sim.NewNetwork(g.N())
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
	net, err := bcclap.NewBCCNetwork(g.N())
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
		_, st, err := s.SolveCtx(context.Background(), bb, 1e-8)
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
	gram := linalg.NewGramFactor(a)
	gram.Factor(d) // d² = d = 1: the Gram matrix of diag(d)·A
	solve := gram.Solve
	b.Run("exact", func(b *testing.B) {
		lev := jl.NewExactLeverage(a)
		for i := 0; i < b.N; i++ {
			if _, err := lev.Scores(d, solve); err != nil {
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
			if _, err := jl.LeverageScoresApprox(a, d, solve, sk); err != nil {
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
		sess, err := lp.NewSession(prob)
		if err != nil {
			b.Fatal(err)
		}
		sol, err := sess.Solve(context.Background(), x0, 0.1, lp.Params{})
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
			fs, err := flow.NewSolver(d, flow.Options{Seed: int64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fs.Solve(context.Background(), flow.Query{S: 0, T: d.N() - 1}, false); err != nil {
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
		var sdd lapsolver.SDDSolver
		for i := 0; i < b.N; i++ {
			if _, _, err := sdd.Solve(context.Background(), m, y); err != nil {
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
			Seed: int64(i + 3),
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
