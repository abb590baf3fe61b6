package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(0, 3, 1); err == nil {
		t.Error("out of range accepted")
	}
	if _, err := g.AddEdge(1, 1, 1); err == nil {
		t.Error("self loop accepted")
	}
	if _, err := g.AddEdge(0, 1, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := g.AddEdge(0, 1, 2); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if g.M() != 1 || g.N() != 3 {
		t.Errorf("M=%d N=%d", g.M(), g.N())
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := Path(4)
	if len(g.IncidentEdges(0)) != 1 || len(g.IncidentEdges(1)) != 2 {
		t.Fatal("degrees wrong")
	}
	var nb []int
	for _, e := range g.IncidentEdges(1) {
		nb = append(nb, g.Other(e, 1))
	}
	slices.Sort(nb)
	if !slices.Equal(nb, []int{0, 2}) {
		t.Fatalf("neighbors of 1 = %v", nb)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Path(3)
	h := g.Clone()
	h.SetWeight(0, 9)
	if g.Edge(0).W != 1 {
		t.Fatal("Clone shares edge storage")
	}
	if _, err := h.AddEdge(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	if g.M() == h.M() {
		t.Fatal("Clone shares adjacency")
	}
}

func TestBFSAndConnected(t *testing.T) {
	g := Path(5)
	d := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Fatalf("BFS[%d] = %d", i, d[i])
		}
	}
	if !g.Connected() {
		t.Fatal("path should be connected")
	}
	h := New(3)
	if _, err := h.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if h.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestDijkstraKnown(t *testing.T) {
	g := New(4)
	mustAdd(g, 0, 1, 1)
	mustAdd(g, 1, 2, 1)
	mustAdd(g, 0, 2, 5)
	mustAdd(g, 2, 3, 1)
	d := g.Dijkstra(0)
	want := []float64{0, 1, 2, 3}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Dijkstra[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	mustAdd(g, 0, 1, 1)
	d := g.Dijkstra(0)
	if !math.IsInf(d[2], 1) {
		t.Fatal("unreachable vertex should be +Inf")
	}
}

func TestStretchIdentity(t *testing.T) {
	g := Grid(3, 3)
	if s := Stretch(g, g); s != 1 {
		t.Fatalf("self stretch = %v", s)
	}
}

func TestStretchPathVsCycle(t *testing.T) {
	c := Cycle(6)
	// Remove one edge: the cycle minus an edge is a path; worst stretch for
	// the removed edge's endpoints is 5.
	keep := make([]int, 0, c.M()-1)
	for i := 0; i < c.M()-1; i++ {
		keep = append(keep, i)
	}
	p := c.Subgraph(keep)
	if s := Stretch(c, p); s != 5 {
		t.Fatalf("stretch = %v, want 5", s)
	}
}

func TestGenerators(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	cases := map[string]*Graph{
		"path":     Path(10),
		"cycle":    Cycle(10),
		"complete": Complete(8),
		"grid":     Grid(4, 5),
		"random":   RandomConnected(20, 0.2, 5, rnd),
		"barbell":  Barbell(5),
	}
	for name, g := range cases {
		if !g.Connected() {
			t.Errorf("%s not connected", name)
		}
	}
	if Complete(8).M() != 28 {
		t.Error("K8 edge count")
	}
	if Grid(4, 5).M() != 4*4+3*5 {
		t.Error("grid edge count")
	}
}

func TestLaplacianPSD(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	g := RandomConnected(12, 0.3, 7, rnd)
	l := g.Laplacian()
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, g.N())
		for i := range x {
			x[i] = rnd.NormFloat64()
		}
		if q := l.QuadForm(x); q < -1e-9 {
			t.Fatalf("Laplacian not PSD: %v", q)
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if components(uf, 5) != 5 {
		t.Fatal("initial components")
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Fatal("union failed")
	}
	if uf.Union(0, 2) {
		t.Fatal("union of same set returned true")
	}
	if got := components(uf, 5); got != 3 {
		t.Fatalf("components = %d", got)
	}
	if uf.Find(0) != uf.Find(2) {
		t.Fatal("find disagrees")
	}
}

// components counts the distinct set representatives among n elements.
func components(uf *UnionFind, n int) int {
	roots := make(map[int]bool)
	for x := 0; x < n; x++ {
		roots[uf.Find(x)] = true
	}
	return len(roots)
}

// inDegree counts the arcs of d entering v.
func inDegree(d *Digraph, v int) int {
	k := 0
	for _, a := range d.Arcs() {
		if a.To == v {
			k++
		}
	}
	return k
}

func TestSubgraphPreservesWeights(t *testing.T) {
	g := New(3)
	mustAdd(g, 0, 1, 2.5)
	mustAdd(g, 1, 2, 3.5)
	h := g.Subgraph([]int{1})
	if h.M() != 1 || h.Edge(0).W != 3.5 {
		t.Fatalf("subgraph wrong: %v", h.WEdges())
	}
}

func TestDigraphBasics(t *testing.T) {
	d := NewDigraph(3)
	if _, err := d.AddArc(0, 1, 5, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddArc(0, 0, 1, 0); err == nil {
		t.Fatal("self loop accepted")
	}
	if _, err := d.AddArc(0, 1, 0, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := d.AddArc(1, 2, 3, -1); err != nil {
		t.Fatal(err)
	}
	if d.MaxCap() != 5 || d.MaxAbsCost() != 2 {
		t.Fatal("max cap/cost wrong")
	}
	if len(d.Out(0)) != 1 || inDegree(d, 2) != 1 {
		t.Fatal("adjacency wrong")
	}
}

func TestFlowNetworkGenerators(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	d := RandomFlowNetwork(10, 0.2, 10, 5, rnd)
	if d.N() != 10 || d.M() < 9 {
		t.Fatal("random flow network malformed")
	}
	l := LayeredFlowNetwork(3, 2, 10, 5, rnd)
	if l.N() != 8 {
		t.Fatalf("layered N = %d", l.N())
	}
	// s has outgoing arcs only to layer 0; t has incoming from last layer.
	if len(l.Out(0)) != 2 || inDegree(l, l.N()-1) != 2 {
		t.Fatal("layered structure wrong")
	}
}
