// Command bcclap-sparsify computes a spectral sparsifier of a graph with
// the Broadcast CONGEST algorithm (Theorem 1.2) and reports size, round
// cost and the measured spectral band.
//
// Input (stdin): "n m" then m lines "u v w"; or -random N for a random
// connected graph.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"bcclap"
	"bcclap/internal/graph"
	"bcclap/internal/sparsify"
)

func main() {
	randomN := flag.Int("random", 0, "generate a random connected graph on N vertices")
	seed := flag.Int64("seed", 1, "random seed")
	t := flag.Int("t", 2, "bundle size (spanners per bundle)")
	k := flag.Int("k", 4, "spanner stretch parameter (stretch 2k−1)")
	flag.Parse()
	if err := run(*randomN, *seed, *t, *k); err != nil {
		fmt.Fprintln(os.Stderr, "bcclap-sparsify:", err)
		os.Exit(1)
	}
}

func run(randomN int, seed int64, t, k int) error {
	var g *graph.Graph
	if randomN > 0 {
		g = graph.RandomConnected(randomN, 0.5, 4, rand.New(rand.NewSource(seed)))
		fmt.Printf("random instance: n=%d m=%d\n", g.N(), g.M())
	} else {
		var err error
		g, err = readGraph(os.Stdin)
		if err != nil {
			return err
		}
	}
	net, err := bcclap.NewBCCNetwork(g.N())
	if err != nil {
		return err
	}
	res, err := bcclap.SparsifyGraph(g, 0.5,
		bcclap.WithSeed(seed),
		bcclap.WithNetwork(net),
		bcclap.WithSparsifyParams(sparsify.Params{K: k, T: t, Iterations: 0}))
	if err != nil {
		return err
	}
	lo, hi := bcclap.SparsifierQuality(g, res.H, seed)
	fmt.Printf("kept %d of %d edges (%.1f%%)\n", res.H.M(), g.M(), 100*float64(res.H.M())/float64(g.M()))
	fmt.Printf("spectral band: [%.3f, %.3f]\n", lo, hi)
	fmt.Printf("Broadcast CONGEST rounds: %d\n", res.Rounds)
	fmt.Printf("orientation max out-degree: %d\n", res.MaxOutDegree)
	return nil
}

func readGraph(f *os.File) (*graph.Graph, error) {
	r := bufio.NewReader(f)
	var n, m int
	if _, err := fmt.Fscan(r, &n, &m); err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	g := graph.New(n)
	for i := 0; i < m; i++ {
		var u, v int
		var w float64
		if _, err := fmt.Fscan(r, &u, &v, &w); err != nil {
			return nil, fmt.Errorf("read edge %d: %w", i, err)
		}
		if _, err := g.AddEdge(u, v, w); err != nil {
			return nil, err
		}
	}
	return g, nil
}
