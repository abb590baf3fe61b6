// Distributed spanner construction (Section 3.1) with probabilistic edges:
// build a (2k−1)-spanner of a clique where every edge only exists with
// probability 1/2, count the Broadcast CONGEST rounds, and verify the
// partition/stretch guarantees of Lemma 3.1.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"bcclap/internal/graph"
	"bcclap/internal/sim"
	"bcclap/internal/spanner"
)

func main() {
	n, k := 40, 3
	g := graph.Complete(n)
	p := make([]float64, g.M())
	for i := range p {
		p[i] = 0.5
	}
	net, err := sim.NewNetwork(n)
	if err != nil {
		log.Fatal(err)
	}
	res := spanner.Run(g, nil, p, k, spanner.Options{
		MarkRand: rand.New(rand.NewSource(1)),
		EdgeRand: rand.New(rand.NewSource(2)),
		Net:      net,
	})
	st := net.Stats()
	fmt.Printf("K%d with p=1/2 edges, k=%d (stretch ≤ %d)\n", n, k, 2*k-1)
	fmt.Printf("decided: |F⁺| = %d (spanner), |F⁻| = %d (sampled away), undecided %d\n",
		len(res.FPlus), len(res.FMinus), g.M()-len(res.FPlus)-len(res.FMinus))
	fmt.Printf("rounds: %d, messages: %d, bits: %d\n", st.Rounds, st.Messages, st.Bits)

	// Lemma 3.1's guarantee: F⁺ spans every graph F⁺ ∪ E″ with E″ ⊆ E∖F.
	decided := make(map[int]bool)
	for _, e := range res.FPlus {
		decided[e] = true
	}
	for _, e := range res.FMinus {
		decided[e] = true
	}
	union := append([]int{}, res.FPlus...)
	rnd := rand.New(rand.NewSource(3))
	for e := 0; e < g.M(); e++ {
		if !decided[e] && rnd.Float64() < 0.5 {
			union = append(union, e)
		}
	}
	stretch := graph.Stretch(g.Subgraph(union), g.Subgraph(res.FPlus))
	fmt.Printf("measured stretch over F⁺ ∪ E″: %.2f (bound %d)\n", stretch, 2*k-1)
}
