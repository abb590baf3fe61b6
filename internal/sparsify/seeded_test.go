package sparsify

import (
	"math"
	"math/rand"
	"testing"

	"bcclap/internal/graph"
	"bcclap/internal/sim"
)

func TestSeededBCCDeterministicGivenSeed(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	g := graph.RandomConnected(20, 0.4, 3, rnd)
	par := Params{K: 3, T: 1, Iterations: 4}
	a := SeededBCC(g, par, 42, nil)
	b := SeededBCC(g, par, 42, nil)
	if a.H.M() != b.H.M() {
		t.Fatalf("same seed, different sizes: %d vs %d", a.H.M(), b.H.M())
	}
	for i := range a.KeptEdges {
		if a.KeptEdges[i] != b.KeptEdges[i] {
			t.Fatal("same seed, different edge sets — the shared-seed expansion is not deterministic")
		}
	}
	c := SeededBCC(g, par, 43, nil)
	same := a.H.M() == c.H.M()
	if same {
		for i := range a.KeptEdges {
			if a.KeptEdges[i] != c.KeptEdges[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical outputs (suspicious PRF)")
	}
}

func TestSeededBCCMatchesAprioriDistribution(t *testing.T) {
	g := graph.Cycle(8)
	for i := 0; i < 4; i++ {
		if _, err := g.AddEdge(i, i+4, 1); err != nil {
			t.Fatal(err)
		}
	}
	par := Params{K: 2, T: 1, Iterations: 3}
	const trials = 400
	var sizeSeeded, sizeApriori float64
	for i := 0; i < trials; i++ {
		rs := SeededBCC(g, par, int64(i+1), nil)
		ra := Apriori(g, par, rand.New(rand.NewSource(int64(i+1))))
		sizeSeeded += float64(rs.H.M())
		sizeApriori += float64(ra.H.M())
	}
	if d := math.Abs(sizeSeeded-sizeApriori) / trials; d > 0.6 {
		t.Fatalf("seeded mean size %v vs apriori %v", sizeSeeded/trials, sizeApriori/trials)
	}
}

func TestSeededBCCSeedBroadcastCharged(t *testing.T) {
	g := graph.Complete(16)
	net, err := sim.NewNetwork(g.N())
	if err != nil {
		t.Fatal(err)
	}
	res := SeededBCC(g, Params{K: 3, T: 1, Iterations: 4}, 7, net)
	if res.Rounds <= 0 {
		t.Fatal("no rounds charged")
	}
	if SeedBitsBCC(16) <= 0 {
		t.Fatal("seed bits must be positive")
	}
	if got, want := net.Stats(), (sim.Stats{Rounds: 65, Messages: 230, Bits: 4144}); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func TestSeededBCCQualityComparableToAdhoc(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(28, 0.5, 2, rnd)
	par := Params{K: 3, T: 3, Iterations: 5}
	seeded := SeededBCC(g, par, 11, nil)
	adhoc := Adhoc(g, par, rand.New(rand.NewSource(11)), nil)
	loS, hiS := Quality(g, seeded.H, 4, rand.New(rand.NewSource(3)))
	loA, hiA := Quality(g, adhoc.H, 4, rand.New(rand.NewSource(3)))
	if loS <= 0 || loA <= 0 {
		t.Fatalf("degenerate quality: seeded [%v,%v], adhoc [%v,%v]", loS, hiS, loA, hiA)
	}
	// The two variants implement the same distribution; their bands should
	// be in the same ballpark (within a generous factor).
	if hiS/loS > 20*(hiA/loA) && hiA/loA > 1.01 {
		t.Fatalf("seeded band [%v,%v] wildly worse than adhoc [%v,%v]", loS, hiS, loA, hiA)
	}
}
