package sparsify

import (
	"math"
	"math/rand"
	"testing"

	"bcclap/internal/graph"
	"bcclap/internal/sim"
)

func TestParams(t *testing.T) {
	p := PaperParams(1024, 5000, 0.5)
	if p.K != 10 {
		t.Errorf("K = %d, want 10", p.K)
	}
	if p.T < 100000 {
		t.Errorf("paper T = %d, expected the huge theory constant", p.T)
	}
	q := PracticalParams(1024, 5000, 0.5)
	if q.T >= p.T {
		t.Error("practical T should be far smaller than paper T")
	}
	if q.K != p.K || q.Iterations != p.Iterations {
		t.Error("practical params should keep K and Iterations")
	}
	z := Params{}.normalize()
	if z.K != 1 || z.T != 1 || z.Iterations != 1 {
		t.Error("normalize failed")
	}
}

func TestAdhocKeepsConnectivityWithGenerousBundle(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	g := graph.RandomConnected(24, 0.4, 4, rnd)
	par := Params{K: 3, T: 4, Iterations: 4}
	res := Adhoc(g, par, rnd, nil)
	if res.H == nil || res.H.N() != g.N() {
		t.Fatal("no sparsifier produced")
	}
	if !res.H.Connected() {
		t.Fatal("sparsifier disconnected (bundle contains a spanner, so it must stay connected)")
	}
	if len(res.KeptEdges) != res.H.M() {
		t.Fatal("KeptEdges inconsistent with H")
	}
}

func TestAdhocQualityImprovesWithT(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(28, 0.5, 1, rnd)
	type band struct{ lo, hi float64 }
	measure := func(tBundle int) band {
		r := rand.New(rand.NewSource(77))
		res := Adhoc(g, Params{K: 3, T: tBundle, Iterations: 5}, r, nil)
		lo, hi := Quality(g, res.H, 6, rand.New(rand.NewSource(5)))
		return band{lo, hi}
	}
	small := measure(1)
	big := measure(6)
	widthSmall := small.hi - small.lo
	widthBig := big.hi - big.lo
	if widthBig > widthSmall+0.35 {
		t.Fatalf("quality band did not improve with T: t=1 gives [%v,%v], t=6 gives [%v,%v]",
			small.lo, small.hi, big.lo, big.hi)
	}
	if big.lo <= 0 {
		t.Fatalf("sparsifier lost PSD dominance entirely: lo = %v", big.lo)
	}
}

func TestAdhocSparsifiesDenseGraph(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	g := graph.Complete(32)
	res := Adhoc(g, Params{K: 4, T: 2, Iterations: 6}, rnd, nil)
	if res.H.M() >= g.M() {
		t.Fatalf("no compression: %d of %d edges kept", res.H.M(), g.M())
	}
}

// TestAprioriMatchesInputWhenBundleDominates: with a huge bundle size every
// edge lands in the bundle, so the output is the whole graph with original
// weights (no 4× scaling applies).
func TestAprioriWholeGraphWhenBundleHuge(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	g := graph.Grid(4, 4)
	res := Apriori(g, Params{K: 1, T: 1, Iterations: 3}, rnd)
	// With k=1 the first spanner keeps every edge, so H = G exactly.
	if res.H.M() != g.M() {
		t.Fatalf("H has %d edges, want %d", res.H.M(), g.M())
	}
	for i, e := range res.H.WEdges() {
		if e.W != g.Edge(res.KeptEdges[i]).W {
			t.Fatal("weights rescaled although nothing was sampled")
		}
	}
	lo, hi := Quality(g, res.H, 4, rnd)
	if lo < 0.999 || hi > 1.001 {
		t.Fatalf("identity sparsifier quality [%v, %v]", lo, hi)
	}
}

// TestLemma33Distribution compares Adhoc and Apriori over many seeds on a
// small graph: Lemma 3.3 says the output distributions are identical, so
// per-edge keep frequencies and expected sizes must agree within sampling
// error.
func TestLemma33Distribution(t *testing.T) {
	g := graph.New(6)
	type pair struct{ u, v int }
	for _, e := range []pair{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 2}, {1, 3}, {2, 4}} {
		if _, err := g.AddEdge(e.u, e.v, 1); err != nil {
			t.Fatal(err)
		}
	}
	const trials = 600
	par := Params{K: 2, T: 1, Iterations: 3}
	freqA := make([]float64, g.M())
	freqB := make([]float64, g.M())
	var sizeA, sizeB float64
	for i := 0; i < trials; i++ {
		ra := rand.New(rand.NewSource(int64(2*i + 1)))
		resA := Adhoc(g, par, ra, nil)
		for _, e := range resA.KeptEdges {
			freqA[e]++
		}
		sizeA += float64(len(resA.KeptEdges))

		rb := rand.New(rand.NewSource(int64(2*i + 2)))
		resB := Apriori(g, par, rb)
		for _, e := range resB.KeptEdges {
			freqB[e]++
		}
		sizeB += float64(len(resB.KeptEdges))
	}
	if d := math.Abs(sizeA-sizeB) / trials; d > 0.5 {
		t.Fatalf("mean sizes differ: adhoc %v vs apriori %v", sizeA/trials, sizeB/trials)
	}
	for e := 0; e < g.M(); e++ {
		fa, fb := freqA[e]/trials, freqB[e]/trials
		// Binomial std dev at p=0.5, n=600 is ≈ 0.02; allow 5 sigma.
		if math.Abs(fa-fb) > 0.11 {
			t.Fatalf("edge %d keep frequency: adhoc %v vs apriori %v", e, fa, fb)
		}
	}
}

// TestRoundsCharged: running Adhoc with a network charges Broadcast CONGEST
// rounds, and the final-sampling broadcast is included.
func TestRoundsCharged(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	g := graph.RandomConnected(16, 0.4, 2, rnd)
	net, err := sim.NewNetwork(g.N())
	if err != nil {
		t.Fatal(err)
	}
	res := Adhoc(g, Params{K: 2, T: 2, Iterations: 3}, rnd, net)
	if res.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
	if res.Rounds != net.Rounds() {
		t.Fatal("result rounds disagree with network")
	}
	if got, want := net.Stats(), (sim.Stats{Rounds: 79, Messages: 306, Bits: 4572}); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestOutDegreeBound: Theorem 1.2 promises small max out-degree for the
// orientation — that is what makes the sparsifier cheap to globalize.
func TestOutDegreeBound(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	g := graph.Complete(24)
	res := Adhoc(g, Params{K: 3, T: 2, Iterations: 5}, rnd, nil)
	if res.MaxOutDegree() == 0 {
		t.Fatal("no orientation recorded")
	}
	if res.MaxOutDegree() > 2*res.H.M()/3 {
		t.Fatalf("orientation degenerate: max out-degree %d of %d edges", res.MaxOutDegree(), res.H.M())
	}
}

func TestWeightsScaledByPowersOfFour(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	g := graph.Complete(16)
	res := Adhoc(g, Params{K: 2, T: 1, Iterations: 4}, rnd, nil)
	for i, e := range res.H.WEdges() {
		orig := g.Edge(res.KeptEdges[i]).W
		ratio := e.W / orig
		l := math.Log2(ratio) / 2 // ratio must be 4^j
		if math.Abs(l-math.Round(l)) > 1e-9 {
			t.Fatalf("edge %d weight ratio %v is not a power of 4", i, ratio)
		}
	}
}
