package spanner

import (
	"math"
	"math/rand"
	"testing"

	"bcclap/internal/graph"
	"bcclap/internal/sim"
)

func optsWithSeeds(mark, edge int64) Options {
	return Options{
		MarkRand: rand.New(rand.NewSource(mark)),
		EdgeRand: rand.New(rand.NewSource(edge)),
	}
}

func allOnes(m int) []float64 {
	p := make([]float64, m)
	for i := range p {
		p[i] = 1
	}
	return p
}

// TestDeterministicStretch verifies Lemma 3.1's stretch bound in the
// deterministic case p ≡ 1, where the algorithm must behave as Baswana–Sen:
// the output F⁺ is a (2k−1)-spanner of the whole input graph (F⁻ = ∅).
func TestDeterministicStretch(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	graphs := map[string]*graph.Graph{
		"grid":     graph.Grid(5, 5),
		"complete": graph.Complete(12),
		"random":   graph.RandomConnected(20, 0.3, 6, rnd),
		"cycle":    graph.Cycle(14),
	}
	for name, g := range graphs {
		for _, k := range []int{1, 2, 3} {
			for seed := int64(0); seed < 3; seed++ {
				res := Run(g, nil, nil, k, optsWithSeeds(seed, seed+100))
				if len(res.FMinus) != 0 {
					t.Fatalf("%s k=%d: p=1 produced F⁻ of size %d", name, k, len(res.FMinus))
				}
				s := g.Subgraph(res.FPlus)
				if st := graph.Stretch(g, s); st > float64(2*k-1)+1e-9 {
					t.Fatalf("%s k=%d seed=%d: stretch %v > %d", name, k, seed, st, 2*k-1)
				}
			}
		}
	}
}

// TestPartitionInvariant: F⁺ and F⁻ are disjoint and cover exactly the
// decided edges.
func TestPartitionInvariant(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	g := graph.RandomConnected(24, 0.3, 4, rnd)
	p := make([]float64, g.M())
	for i := range p {
		p[i] = 0.5
	}
	res := Run(g, nil, p, 3, optsWithSeeds(1, 2))
	seen := make(map[int]string)
	for _, e := range res.FPlus {
		seen[e] = "+"
	}
	for _, e := range res.FMinus {
		if seen[e] == "+" {
			t.Fatalf("edge %d in both F⁺ and F⁻", e)
		}
		seen[e] = "-"
	}
}

// TestImplicitDeductionConsistency verifies the paper's core communication
// claim: the per-vertex sets built only from local decisions plus broadcast
// deductions agree across endpoints — u ∈ F_v ⟺ (u,v) ∈ F for all u, v.
func TestImplicitDeductionConsistency(t *testing.T) {
	rnd := rand.New(rand.NewSource(29))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomConnected(18, 0.35, 5, rnd)
		p := make([]float64, g.M())
		for i := range p {
			p[i] = []float64{0.25, 0.5, 0.9}[trial%3]
		}
		res := Run(g, nil, p, 2+trial%3, optsWithSeeds(int64(trial), int64(trial)+50))
		inPlus := make(map[int]bool)
		for _, e := range res.FPlus {
			inPlus[e] = true
		}
		inMinus := make(map[int]bool)
		for _, e := range res.FMinus {
			inMinus[e] = true
		}
		for e := 0; e < g.M(); e++ {
			ed := g.Edge(e)
			pu, pv := res.FPlusV[ed.U][e], res.FPlusV[ed.V][e]
			mu, mv := res.FMinusV[ed.U][e], res.FMinusV[ed.V][e]
			if (pu || pv) != inPlus[e] {
				t.Fatalf("trial %d edge %d: endpoint F⁺ views (%v,%v) vs truth %v", trial, e, pu, pv, inPlus[e])
			}
			if mu != inMinus[e] || mv != inMinus[e] {
				t.Fatalf("trial %d edge %d: endpoint F⁻ views (%v,%v) vs truth %v", trial, e, mu, mv, inMinus[e])
			}
			if inPlus[e] && !(pu && pv) {
				t.Fatalf("trial %d edge %d: F⁺ not known to both endpoints", trial, e)
			}
		}
	}
}

// TestCouplingLemma31 replays the proof of Lemma 3.1: running the algorithm
// again with p ≡ 1 on F⁺ ∪ E″ (same cluster-marking randomness) reproduces
// exactly F⁺ with an empty F⁻.
func TestCouplingLemma31(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		g := graph.RandomConnected(16, 0.4, 3, rnd)
		m := g.M()
		p := make([]float64, m)
		for i := range p {
			p[i] = 0.4
		}
		k := 2 + trial%2
		markSeed := int64(1000 + trial)
		resA := Run(g, nil, p, k, optsWithSeeds(markSeed, int64(trial)))

		decided := make(map[int]bool)
		inPlus := make(map[int]bool)
		for _, e := range resA.FPlus {
			decided[e] = true
			inPlus[e] = true
		}
		for _, e := range resA.FMinus {
			decided[e] = true
		}
		// E″: random subset of the undecided edges.
		alive := make([]bool, m)
		for e := 0; e < m; e++ {
			switch {
			case inPlus[e]:
				alive[e] = true
			case decided[e]:
				alive[e] = false
			default:
				alive[e] = rnd.Float64() < 0.5
			}
		}
		resB := Run(g, alive, nil, k, optsWithSeeds(markSeed, int64(trial)+7))
		if len(resB.FMinus) != 0 {
			t.Fatalf("trial %d: coupled rerun deleted edges", trial)
		}
		gotPlus := make(map[int]bool)
		for _, e := range resB.FPlus {
			gotPlus[e] = true
		}
		if len(gotPlus) != len(inPlus) {
			t.Fatalf("trial %d: |F⁺| differs: %d vs %d", trial, len(gotPlus), len(inPlus))
		}
		for e := range inPlus {
			if !gotPlus[e] {
				t.Fatalf("trial %d: edge %d in A's F⁺ but not B's", trial, e)
			}
		}
	}
}

// TestProbabilisticStretch verifies Lemma 3.1's statement for p < 1:
// S = (V, F⁺) is a (2k−1)-spanner of (V, F⁺ ∪ E″) for random E″ ⊆ E∖F.
func TestProbabilisticStretch(t *testing.T) {
	rnd := rand.New(rand.NewSource(37))
	for trial := 0; trial < 6; trial++ {
		g := graph.RandomConnected(15, 0.4, 4, rnd)
		p := make([]float64, g.M())
		for i := range p {
			p[i] = 0.5
		}
		k := 2
		res := Run(g, nil, p, k, optsWithSeeds(int64(trial), int64(trial*3)))
		decided := make(map[int]bool)
		for _, e := range res.FPlus {
			decided[e] = true
		}
		for _, e := range res.FMinus {
			decided[e] = true
		}
		var union []int
		union = append(union, res.FPlus...)
		for e := 0; e < g.M(); e++ {
			if !decided[e] && rnd.Float64() < 0.5 {
				union = append(union, e)
			}
		}
		whole := g.Subgraph(union)
		span := g.Subgraph(res.FPlus)
		if st := graph.Stretch(whole, span); st > float64(2*k-1)+1e-9 {
			t.Fatalf("trial %d: stretch %v > %d", trial, st, 2*k-1)
		}
	}
}

// TestSingleEdgeAcceptanceRate: on a single probabilistic edge the decided
// outcome must be F⁺ with probability p (the heart of the sampling
// correctness).
func TestSingleEdgeAcceptanceRate(t *testing.T) {
	g := graph.New(2)
	if _, err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	const pEdge = 0.3
	const trials = 4000
	accepted := 0
	for i := 0; i < trials; i++ {
		res := Run(g, nil, []float64{pEdge}, 1, optsWithSeeds(int64(i), int64(i)+9999))
		switch {
		case len(res.FPlus) == 1 && len(res.FMinus) == 0:
			accepted++
		case len(res.FPlus) == 0 && len(res.FMinus) == 1:
		default:
			t.Fatalf("edge left undecided or double-decided: +%d -%d", len(res.FPlus), len(res.FMinus))
		}
	}
	rate := float64(accepted) / trials
	if math.Abs(rate-pEdge) > 0.03 {
		t.Fatalf("acceptance rate %v, want ≈ %v", rate, pEdge)
	}
}

// TestSpannerSizeBound checks |F⁺| = O(k·n^{1+1/k}) with a generous
// constant on a dense graph.
func TestSpannerSizeBound(t *testing.T) {
	g := graph.Complete(40)
	k := 3
	var total float64
	const runs = 5
	for seed := int64(0); seed < runs; seed++ {
		res := Run(g, nil, nil, k, optsWithSeeds(seed, seed))
		total += float64(len(res.FPlus))
	}
	avg := total / runs
	n := float64(g.N())
	bound := 8 * float64(k) * math.Pow(n, 1+1/float64(k))
	if avg > bound {
		t.Fatalf("average spanner size %v exceeds O(k n^{1+1/k}) bound %v", avg, bound)
	}
	if avg >= float64(g.M()) {
		t.Fatalf("spanner did not compress K40 at all: %v edges of %d", avg, g.M())
	}
}

// TestRoundAccounting: the simulator must charge rounds, and the charge
// should scale with k·n^{1/k} structure rather than m (Lemma 3.2).
func TestRoundAccounting(t *testing.T) {
	g := graph.Complete(24)
	net, err := sim.NewNetwork(g.N())
	if err != nil {
		t.Fatal(err)
	}
	opts := optsWithSeeds(3, 4)
	opts.Net = net
	res := Run(g, nil, nil, 3, opts)
	if net.Rounds() == 0 {
		t.Fatal("no rounds charged")
	}
	if len(res.FPlus) == 0 {
		t.Fatal("empty spanner")
	}
	// The spanner of a connected graph must keep it connected.
	if !g.Subgraph(res.FPlus).Connected() {
		t.Fatal("spanner disconnected the graph")
	}
	if got, want := net.Stats(), (sim.Stats{Rounds: 14, Messages: 150, Bits: 3000}); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestBundleDisjointLayers: every edge decided by layer i is excluded from
// later layers, and B is a union of spanners each of stretch 2k−1 in the
// residual graph.
func TestBundleDisjointLayers(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	g := graph.RandomConnected(20, 0.5, 3, rnd)
	res := Bundle(g, nil, nil, 2, 3, optsWithSeeds(5, 6))
	if len(res.Layers) != 3 {
		t.Fatalf("layers = %d", len(res.Layers))
	}
	seen := make(map[int]int)
	for li, layer := range res.Layers {
		for _, e := range append(append([]int{}, layer.FPlus...), layer.FMinus...) {
			if prev, ok := seen[e]; ok {
				t.Fatalf("edge %d decided in layers %d and %d", e, prev, li)
			}
			seen[e] = li
		}
	}
	if len(res.B) == 0 {
		t.Fatal("empty bundle")
	}
}

// TestOutDegreeOrientation: Lemma 3.1 gives an orientation with expected
// out-degree O(k·n^{1/k}); check the max out-degree is far below the max
// degree on a complete graph.
func TestOutDegreeOrientation(t *testing.T) {
	g := graph.Complete(30)
	res := Run(g, nil, nil, 3, optsWithSeeds(7, 8))
	sum := 0
	maxOut := 0
	for _, d := range res.OutDeg {
		sum += d
		if d > maxOut {
			maxOut = d
		}
	}
	if sum != len(res.FPlus) {
		t.Fatalf("orientation covers %d, |F⁺| = %d", sum, len(res.FPlus))
	}
	if maxOut > g.N()/2 {
		t.Fatalf("max out-degree %d suspiciously high", maxOut)
	}
}

func TestKOneReturnsWholeGraph(t *testing.T) {
	g := graph.Grid(3, 4)
	res := Run(g, nil, nil, 1, optsWithSeeds(1, 1))
	if len(res.FPlus) != g.M() {
		t.Fatalf("k=1 spanner has %d edges, want all %d", len(res.FPlus), g.M())
	}
}
