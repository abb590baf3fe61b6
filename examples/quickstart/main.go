// Quickstart: sparsify a graph in the Broadcast CONGEST model and solve a
// Laplacian system in the Broadcast Congested Clique — the two primitives
// of Theorems 1.2 and 1.3 in ~50 lines.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"bcclap"
)

func main() {
	// A dense random graph on 32 vertices.
	rnd := rand.New(rand.NewSource(42))
	g := bcclap.NewGraph(32)
	for u := 0; u < 32; u++ {
		for v := u + 1; v < 32; v++ {
			if rnd.Float64() < 0.5 {
				if _, err := g.AddEdge(u, v, 1+float64(rnd.Intn(4))); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	if !g.Connected() {
		log.Fatal("unlucky seed: graph disconnected")
	}

	// 1. Spectral sparsification with round accounting (Theorem 1.2).
	net, err := bcclap.NewBCCNetwork(g.N())
	if err != nil {
		log.Fatal(err)
	}
	sp, err := bcclap.SparsifyGraph(g, 0.5,
		bcclap.WithSeed(7),
		bcclap.WithNetwork(net),
		// A lean bundle: at n = 32 the default practical bundle already
		// covers the whole graph (which is a valid, if pointless,
		// sparsifier).
		bcclap.WithSparsifyParams(bcclap.SparsifyParams{K: 4, T: 2, Iterations: 6}))
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := bcclap.SparsifierQuality(g, sp.H, 7)
	fmt.Printf("sparsifier: %d of %d edges, spectral band [%.2f, %.2f], %d BC rounds\n",
		sp.H.M(), g.M(), lo, hi, sp.Rounds)

	// 2. Laplacian solving in the BCC (Theorem 1.3): preprocess once,
	// answer many (b, ε) instances cheaply.
	bccNet, err := bcclap.NewBCCNetwork(g.N())
	if err != nil {
		log.Fatal(err)
	}
	solver, err := bcclap.NewLaplacianSession(g, bcclap.WithSeed(7), bcclap.WithNetwork(bccNet))
	if err != nil {
		log.Fatal(err)
	}
	b := make([]float64, g.N())
	b[0], b[g.N()-1] = 1, -1 // unit demand pair: x is an electrical potential
	x, st, err := solver.SolveCtx(context.Background(), b, 1e-6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("laplacian solve: %d Chebyshev iterations, %d rounds (preprocessing %d)\n",
		st.CGIterations, st.Rounds, solver.PreprocessRounds())
	fmt.Printf("effective resistance(0, %d) ≈ %.4f\n", g.N()-1, x[0]-x[g.N()-1])
}
