package graph

import (
	"fmt"
	"math/rand"
)

// Path returns the path graph 0-1-…-(n-1) with unit weights.
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		mustAdd(g, i, i+1, 1)
	}
	return g
}

// Cycle returns the n-cycle with unit weights.
func Cycle(n int) *Graph {
	g := Path(n)
	if n >= 3 {
		mustAdd(g, n-1, 0, 1)
	}
	return g
}

// Complete returns K_n with unit weights.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			mustAdd(g, u, v, 1)
		}
	}
	return g
}

// Grid returns the rows×cols grid graph with unit weights; vertex (r,c) has
// index r*cols+c.
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				mustAdd(g, id(r, c), id(r, c+1), 1)
			}
			if r+1 < rows {
				mustAdd(g, id(r, c), id(r+1, c), 1)
			}
		}
	}
	return g
}

// RandomConnected returns a connected G(n,p)-style graph: a random spanning
// tree plus each remaining pair independently with probability p. Weights
// are integers drawn uniformly from [1, maxW].
func RandomConnected(n int, p float64, maxW int, rnd *rand.Rand) *Graph {
	if maxW < 1 {
		maxW = 1
	}
	g := New(n)
	// Random spanning tree: connect each vertex i ≥ 1 to a uniformly random
	// earlier vertex (random attachment tree).
	for i := 1; i < n; i++ {
		j := rnd.Intn(i)
		mustAdd(g, j, i, float64(1+rnd.Intn(maxW)))
	}
	present := make(map[[2]int]bool, n)
	for _, e := range g.edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		present[[2]int{u, v}] = true
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if present[[2]int{u, v}] {
				continue
			}
			if rnd.Float64() < p {
				mustAdd(g, u, v, float64(1+rnd.Intn(maxW)))
			}
		}
	}
	return g
}

// Barbell returns two K_k cliques joined by a single unit-weight bridge
// edge; a classic hard case for spectral approximation (the bridge carries
// all the conductance).
func Barbell(k int) *Graph {
	g := New(2 * k)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			mustAdd(g, u, v, 1)
			mustAdd(g, k+u, k+v, 1)
		}
	}
	mustAdd(g, k-1, k, 1)
	return g
}

func mustAdd(g *Graph, u, v int, w float64) {
	if _, err := g.AddEdge(u, v, w); err != nil {
		panic(fmt.Sprintf("graph generator: %v", err))
	}
}
