package graph

import (
	"fmt"

	"bcclap/internal/linalg"
)

// Edge is an undirected weighted edge. U < V is not required; edges store
// endpoints as given.
type Edge struct {
	U, V int
	W    float64
}

// Graph is an undirected weighted multigraph on vertices 0..n-1. Edges are
// stored in an indexed list; adjacency lists hold edge indices so parallel
// edges and per-edge metadata (e.g. sampling probabilities) are supported.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]int // vertex -> indices into edges
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// AddEdge appends the undirected edge (u, v, w) and returns its index.
func (g *Graph) AddEdge(u, v int, w float64) (int, error) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return 0, fmt.Errorf("graph: self-loop at %d", u)
	}
	if w <= 0 {
		return 0, fmt.Errorf("graph: non-positive weight %g on edge (%d,%d)", w, u, v)
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, W: w})
	g.adj[u] = append(g.adj[u], idx)
	g.adj[v] = append(g.adj[v], idx)
	return idx, nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edge returns the edge with the given index.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// IncidentEdges returns the indices of edges incident to v (a copy).
func (g *Graph) IncidentEdges(v int) []int {
	out := make([]int, len(g.adj[v]))
	copy(out, g.adj[v])
	return out
}

// Other returns the endpoint of edge i that is not v.
func (g *Graph) Other(i, v int) int {
	e := g.edges[i]
	if e.U == v {
		return e.V
	}
	return e.U
}

// SetWeight replaces the weight of edge i (used by the sparsifier's
// reweighting step, Algorithm 5 line 10).
func (g *Graph) SetWeight(i int, w float64) { g.edges[i].W = w }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := New(g.n)
	out.edges = make([]Edge, len(g.edges))
	copy(out.edges, g.edges)
	out.adj = make([][]int, g.n)
	for v := range g.adj {
		out.adj[v] = append([]int(nil), g.adj[v]...)
	}
	return out
}

// Subgraph returns the graph induced by keeping exactly the edges whose
// indices appear in keep (weights preserved).
func (g *Graph) Subgraph(keep []int) *Graph {
	out := New(g.n)
	for _, i := range keep {
		e := g.edges[i]
		// Re-adding preserves weights; errors are impossible for valid indices.
		if _, err := out.AddEdge(e.U, e.V, e.W); err != nil {
			panic(err)
		}
	}
	return out
}

// MaxWeight returns the largest edge weight (0 for an edgeless graph).
func (g *Graph) MaxWeight() float64 {
	var m float64
	for _, e := range g.edges {
		if e.W > m {
			m = e.W
		}
	}
	return m
}

// TotalWeight returns the sum of edge weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, e := range g.edges {
		s += e.W
	}
	return s
}

// WEdges converts the edge list into linalg.WEdge triples for Laplacian
// assembly.
func (g *Graph) WEdges() []linalg.WEdge {
	out := make([]linalg.WEdge, len(g.edges))
	for i, e := range g.edges {
		out[i] = linalg.WEdge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

// Laplacian assembles the graph Laplacian as a CSR matrix.
func (g *Graph) Laplacian() *linalg.CSR {
	return linalg.LaplacianCSR(g.n, g.WEdges())
}
