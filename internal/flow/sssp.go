package flow

import (
	"context"
	"fmt"
	"math"

	"bcclap/internal/graph"
)

// ShortestPathViaFlow computes the cost of a shortest s→t path by the
// reduction the paper's introduction uses to motivate Theorem 1.1: the
// single-source shortest path problem is the special case of min-cost flow
// with one unit of demand. A super-source with a single unit-capacity arc
// to s forces flow value 1, whose minimum cost is d(s, t). Costs must be
// non-negative. Returns ErrUnreachable when t is not reachable from s.
func ShortestPathViaFlow(d *graph.Digraph, s, t int, opts Options) (int64, error) {
	if err := checkST(d, s, t); err != nil {
		return 0, err
	}
	for i := 0; i < d.M(); i++ {
		if d.Arc(i).Cost < 0 {
			return 0, fmt.Errorf("flow: shortest path reduction needs non-negative costs")
		}
	}
	// Rebuild with a super-source (vertex n) feeding s through one
	// unit-capacity zero-cost arc.
	n := d.N()
	aug := graph.NewDigraph(n + 1)
	for i := 0; i < d.M(); i++ {
		a := d.Arc(i)
		// Unit capacities suffice (one unit ever flows) and keep the LP
		// small.
		if _, err := aug.AddArc(a.From, a.To, 1, a.Cost); err != nil {
			return 0, err
		}
	}
	if _, err := aug.AddArc(n, s, 1, 0); err != nil {
		return 0, err
	}
	fs, err := NewSolver(aug, opts)
	if err != nil {
		return 0, err
	}
	res, err := fs.Solve(context.TODO(), Query{S: n, T: t}, false)
	if err != nil {
		return 0, err
	}
	if res.Value == 0 {
		return 0, ErrUnreachable
	}
	return res.Cost, nil
}

// ErrUnreachable is returned when no s→t path exists.
var ErrUnreachable = fmt.Errorf("flow: target unreachable")

// DijkstraCost is the centralized reference for ShortestPathViaFlow.
func DijkstraCost(d *graph.Digraph, s, t int) (int64, error) {
	const inf = math.MaxInt64 / 4
	dist := make([]int64, d.N())
	for i := range dist {
		dist[i] = inf
	}
	dist[s] = 0
	// Simple O(n²) Dijkstra (costs ≥ 0) — reference only.
	done := make([]bool, d.N())
	for {
		v, best := -1, int64(inf)
		for u := 0; u < d.N(); u++ {
			if !done[u] && dist[u] < best {
				v, best = u, dist[u]
			}
		}
		if v < 0 {
			break
		}
		done[v] = true
		for _, ai := range d.Out(v) {
			a := d.Arc(ai)
			if nd := dist[v] + a.Cost; nd < dist[a.To] {
				dist[a.To] = nd
			}
		}
	}
	if dist[t] >= inf {
		return 0, ErrUnreachable
	}
	return dist[t], nil
}
