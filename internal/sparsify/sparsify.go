package sparsify

import (
	"math"
	"math/rand"

	"bcclap/internal/graph"
	"bcclap/internal/linalg"
	"bcclap/internal/sim"
	"bcclap/internal/spanner"
)

// Params controls the sparsifier.
type Params struct {
	// K is the spanner stretch parameter; the paper sets k = ⌈log n⌉ so
	// that n^{1/k} = O(1).
	K int
	// T is the number of spanners per bundle; the paper's proof uses
	// t = 400·log²(n)/ε². That constant is for the w.h.p. union bound —
	// PracticalParams scales it down (see EXPERIMENTS.md, E3/E11).
	T int
	// Iterations is the number of sparsification rounds; the paper uses
	// ⌈log m⌉.
	Iterations int
}

// PaperParams returns the parameters exactly as in Algorithm 5.
func PaperParams(n, m int, eps float64) Params {
	ln := math.Log2(float64(max(2, n)))
	return Params{
		K:          int(math.Ceil(ln)),
		T:          int(math.Ceil(400 * ln * ln / (eps * eps))),
		Iterations: int(math.Ceil(math.Log2(float64(max(2, m))))),
	}
}

// PracticalParams keeps the paper's parameter *shapes* (t ∝ log²n/ε²,
// k = ⌈log n⌉, ⌈log m⌉ iterations) with a constant small enough that
// sparsification actually compresses at experiment scale; the E3 experiment
// reports measured quality against ε for this choice.
func PracticalParams(n, m int, eps float64) Params {
	p := PaperParams(n, m, eps)
	ln := math.Log2(float64(max(2, n)))
	p.T = max(1, int(math.Ceil(0.5*ln/(eps*eps))))
	return p
}

// normalize clamps parameters to usable minima.
func (p Params) normalize() Params {
	if p.K < 1 {
		p.K = 1
	}
	if p.T < 1 {
		p.T = 1
	}
	if p.Iterations < 1 {
		p.Iterations = 1
	}
	return p
}

// Result is a computed sparsifier.
type Result struct {
	// H is the reweighted sparsifier subgraph on the same vertex set.
	H *graph.Graph
	// KeptEdges[i] is the index in the input graph of H's i-th edge.
	KeptEdges []int
	// OutDeg is the orientation guaranteed by Theorem 1.2: every vertex
	// has small out-degree, so H can be made global knowledge quickly.
	OutDeg []int
	// BundleSizes records |B_i| per iteration (diagnostics).
	BundleSizes []int
	// Rounds is the number of simulator rounds consumed (0 when run
	// without a network).
	Rounds int
}

// MaxOutDegree returns the maximum entry of OutDeg.
func (r *Result) MaxOutDegree() int {
	m := 0
	for _, d := range r.OutDeg {
		if d > m {
			m = d
		}
	}
	return m
}

// Adhoc runs SpectralSparsify (Algorithm 5): the Broadcast CONGEST
// algorithm with on-the-fly edge sampling. The input graph is not modified.
func Adhoc(g *graph.Graph, par Params, rnd *rand.Rand, net *sim.Network) *Result {
	par = par.normalize()
	work := g.Clone() // weights are rescaled across iterations
	m := work.M()
	alive := make([]bool, m)
	p := make([]float64, m)
	for e := 0; e < m; e++ {
		alive[e] = true
		p[e] = 1
	}
	res := &Result{OutDeg: make([]int, g.N())}
	startRounds := net.Rounds()
	opts := spanner.Options{MarkRand: rnd, EdgeRand: rnd, Net: net}

	for it := 0; it < par.Iterations; it++ {
		bundle := spanner.Bundle(work, alive, p, par.K, par.T, opts)
		res.BundleSizes = append(res.BundleSizes, len(bundle.B))
		for v, d := range bundle.OutDeg {
			res.OutDeg[v] += d
		}
		inB := make(map[int]bool, len(bundle.B))
		for _, e := range bundle.B {
			inB[e] = true
		}
		// E_i := E_{i-1} \ C_i.
		for _, e := range bundle.C {
			alive[e] = false
		}
		// Bundle edges exist for sure from now on; the rest decay.
		for e := 0; e < m; e++ {
			if !alive[e] {
				continue
			}
			if inB[e] {
				p[e] = 1
			} else {
				p[e] /= 4
				work.SetWeight(e, 4*work.Edge(e).W)
			}
		}
		if it == par.Iterations-1 {
			// Final step (lines 11–15): keep the last bundle outright, then
			// each remaining edge is sampled by its lower-ID endpoint with
			// its accumulated probability and broadcast if kept.
			net.BeginPhase()
			kept := make([]bool, m)
			for _, e := range bundle.B {
				kept[e] = true
			}
			for e := 0; e < m; e++ {
				if !alive[e] || kept[e] {
					continue
				}
				if rnd.Float64() < p[e] {
					kept[e] = true
					ed := work.Edge(e)
					lo := ed.U
					if ed.V < lo {
						lo = ed.V
					}
					res.OutDeg[lo]++ // oriented toward the higher ID
					net.Broadcast(lo, 2*sim.BitsForID(g.N()))
				}
			}
			net.EndPhase()
			res.H = graph.New(g.N())
			for e := 0; e < m; e++ {
				if kept[e] {
					ed := work.Edge(e)
					if _, err := res.H.AddEdge(ed.U, ed.V, ed.W); err != nil {
						panic(err)
					}
					res.KeptEdges = append(res.KeptEdges, e)
				}
			}
		}
	}
	res.Rounds = net.Rounds() - startRounds
	return res
}

// Apriori runs SpectralSparsify-apriori (Algorithm 4): surviving non-bundle
// edges are kept with probability 1/4 immediately after each bundle. It is
// the reference algorithm of Koutis–Xu / Kyng et al. whose guarantee
// (Theorem 3.4) transfers to Adhoc through Lemma 3.3.
func Apriori(g *graph.Graph, par Params, rnd *rand.Rand) *Result {
	par = par.normalize()
	work := g.Clone()
	m := work.M()
	alive := make([]bool, m)
	for e := 0; e < m; e++ {
		alive[e] = true
	}
	res := &Result{OutDeg: make([]int, g.N())}
	opts := spanner.Options{MarkRand: rnd, EdgeRand: rnd}

	for it := 0; it < par.Iterations; it++ {
		bundle := spanner.Bundle(work, alive, nil, par.K, par.T, opts)
		res.BundleSizes = append(res.BundleSizes, len(bundle.B))
		for v, d := range bundle.OutDeg {
			res.OutDeg[v] += d
		}
		inB := make(map[int]bool, len(bundle.B))
		for _, e := range bundle.B {
			inB[e] = true
		}
		for e := 0; e < m; e++ {
			if !alive[e] || inB[e] {
				continue
			}
			if rnd.Float64() < 0.25 {
				work.SetWeight(e, 4*work.Edge(e).W)
			} else {
				alive[e] = false
			}
		}
	}
	res.H = graph.New(g.N())
	for e := 0; e < m; e++ {
		if alive[e] {
			ed := work.Edge(e)
			if _, err := res.H.AddEdge(ed.U, ed.V, ed.W); err != nil {
				panic(err)
			}
			res.KeptEdges = append(res.KeptEdges, e)
		}
	}
	return res
}

// Quality estimates the spectral approximation range of the sparsifier:
// it returns (lo, hi) with lo ≤ xᵀL_G x / xᵀL_H x ≤ hi over sampled and
// power-iterated directions x ⊥ 1. For a (1±ε) sparsifier in the sense of
// Definition 2.1, 1−ε ≤ lo and hi ≤ 1+ε.
func Quality(g *graph.Graph, h *graph.Graph, probes int, rnd *rand.Rand) (lo, hi float64) {
	lh := h.Laplacian()
	solveH := func(b []float64) []float64 {
		x, _ := linalg.CGLaplacian(lh, b, 1e-10, 4*g.N()+200)
		return x
	}
	return linalg.PencilBounds(g.WEdges(), h.WEdges(), g.N(), solveH, probes, 24, rnd.Float64)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
