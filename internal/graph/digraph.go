package graph

import (
	"errors"
	"fmt"
	"math/rand"
)

// Arc is a directed edge with an integer capacity and cost, matching the
// min-cost max-flow setup in Sections 2.4 and 5 of the paper.
type Arc struct {
	From, To int
	Cap      int64 // capacity c_e > 0
	Cost     int64 // cost q_e (may be zero or, after perturbation, scaled)
}

// Digraph is a directed multigraph with capacities and costs on arcs.
type Digraph struct {
	n    int
	arcs []Arc
	out  [][]int // vertex -> indices of outgoing arcs
}

// NewDigraph returns an empty directed graph on n vertices.
func NewDigraph(n int) *Digraph {
	return &Digraph{n: n, out: make([][]int, n)}
}

// AddArc appends a directed arc and returns its index.
func (d *Digraph) AddArc(from, to int, capacity, cost int64) (int, error) {
	if from < 0 || from >= d.n || to < 0 || to >= d.n {
		return 0, fmt.Errorf("digraph: arc (%d,%d) out of range [0,%d)", from, to, d.n)
	}
	if from == to {
		return 0, fmt.Errorf("digraph: self-loop at %d", from)
	}
	if capacity <= 0 {
		return 0, fmt.Errorf("digraph: non-positive capacity %d on arc (%d,%d)", capacity, from, to)
	}
	idx := len(d.arcs)
	d.arcs = append(d.arcs, Arc{From: from, To: to, Cap: capacity, Cost: cost})
	d.out[from] = append(d.out[from], idx)
	return idx, nil
}

// Clone returns a deep copy of d: mutating the copy's arcs (PatchArc,
// ApplyDeltas) never aliases the original.
func (d *Digraph) Clone() *Digraph {
	nd := &Digraph{
		n:    d.n,
		arcs: append([]Arc(nil), d.arcs...),
		out:  make([][]int, d.n),
	}
	for v := 0; v < d.n; v++ {
		nd.out[v] = append([]int(nil), d.out[v]...)
	}
	return nd
}

// ErrBadDelta marks a malformed arc delta: an index outside the arc list,
// or a capacity delta that would drive an arc's capacity non-positive
// (cumulatively, when one arc appears several times in a delta set).
var ErrBadDelta = errors.New("digraph: bad arc delta")

// ArcDelta is one incremental arc mutation: additive adjustments to the
// capacity and cost of the arc at index Arc (the AddArc return value /
// Arcs() position). Topology is immutable — deltas never add or remove
// arcs — so the LP constraint structure built from the digraph stays
// valid across patches.
type ArcDelta struct {
	Arc       int
	CapDelta  int64
	CostDelta int64
}

// CheckDeltas reports (without mutating) whether ds applies cleanly to
// arcs: every index in range and every capacity positive after the
// cumulative deltas. Errors wrap ErrBadDelta.
func CheckDeltas(arcs []Arc, ds []ArcDelta) error {
	caps := make(map[int]int64, len(ds))
	for i, dl := range ds {
		if dl.Arc < 0 || dl.Arc >= len(arcs) {
			return fmt.Errorf("%w: delta %d: arc index %d out of range [0,%d)", ErrBadDelta, i, dl.Arc, len(arcs))
		}
		c, ok := caps[dl.Arc]
		if !ok {
			c = arcs[dl.Arc].Cap
		}
		c += dl.CapDelta
		if c <= 0 {
			return fmt.Errorf("%w: delta %d drives arc %d capacity to %d", ErrBadDelta, i, dl.Arc, c)
		}
		caps[dl.Arc] = c
	}
	return nil
}

// PatchArcList validates ds against arcs (CheckDeltas) and then applies it
// in place. On error nothing is mutated.
func PatchArcList(arcs []Arc, ds []ArcDelta) error {
	if err := CheckDeltas(arcs, ds); err != nil {
		return err
	}
	for _, dl := range ds {
		arcs[dl.Arc].Cap += dl.CapDelta
		arcs[dl.Arc].Cost += dl.CostDelta
	}
	return nil
}

// ApplyDeltas applies an all-or-nothing set of arc deltas to d. The arc
// list is mutated in place — indices, endpoints and adjacency are
// untouched, so readers of the topology (N, M, Out, In) are unaffected.
func (d *Digraph) ApplyDeltas(ds []ArcDelta) error {
	return PatchArcList(d.arcs, ds)
}

// N returns the number of vertices.
func (d *Digraph) N() int { return d.n }

// M returns the number of arcs.
func (d *Digraph) M() int { return len(d.arcs) }

// Arc returns the arc with the given index.
func (d *Digraph) Arc(i int) Arc { return d.arcs[i] }

// Arcs returns a copy of the arc list.
func (d *Digraph) Arcs() []Arc {
	out := make([]Arc, len(d.arcs))
	copy(out, d.arcs)
	return out
}

// Out returns the indices of arcs leaving v (a copy).
func (d *Digraph) Out(v int) []int { return append([]int(nil), d.out[v]...) }

// MaxCap returns the largest arc capacity.
func (d *Digraph) MaxCap() int64 {
	var m int64
	for _, a := range d.arcs {
		if a.Cap > m {
			m = a.Cap
		}
	}
	return m
}

// MaxAbsCost returns the largest |cost|.
func (d *Digraph) MaxAbsCost() int64 {
	var m int64
	for _, a := range d.arcs {
		c := a.Cost
		if c < 0 {
			c = -c
		}
		if c > m {
			m = c
		}
	}
	return m
}

// RandomFlowNetwork builds a connected random flow network on n vertices
// with an s→t backbone path (guaranteeing positive max flow), plus extra
// random arcs with probability p. Capacities are in [1, maxCap], costs in
// [0, maxCost]. s = 0, t = n-1.
func RandomFlowNetwork(n int, p float64, maxCap, maxCost int64, rnd *rand.Rand) *Digraph {
	d := NewDigraph(n)
	add := func(u, v int) {
		c := 1 + rnd.Int63n(maxCap)
		q := rnd.Int63n(maxCost + 1)
		if _, err := d.AddArc(u, v, c, q); err != nil {
			panic(err)
		}
	}
	for i := 0; i+1 < n; i++ {
		add(i, i+1)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || (v == u+1) {
				continue
			}
			if rnd.Float64() < p {
				add(u, v)
			}
		}
	}
	return d
}

// LayeredFlowNetwork builds a layered DAG (layers of the given width)
// between s = 0 and t = n-1, the classic transport-network workload from the
// paper's min-cost flow motivation. Every consecutive-layer pair is fully
// connected with random capacities/costs.
func LayeredFlowNetwork(layers, width int, maxCap, maxCost int64, rnd *rand.Rand) *Digraph {
	n := layers*width + 2
	d := NewDigraph(n)
	s, t := 0, n-1
	node := func(l, i int) int { return 1 + l*width + i }
	add := func(u, v int) {
		c := 1 + rnd.Int63n(maxCap)
		q := rnd.Int63n(maxCost + 1)
		if _, err := d.AddArc(u, v, c, q); err != nil {
			panic(err)
		}
	}
	for i := 0; i < width; i++ {
		add(s, node(0, i))
		add(node(layers-1, i), t)
	}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				add(node(l, i), node(l+1, j))
			}
		}
	}
	return d
}
