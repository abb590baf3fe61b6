package flow

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"bcclap/internal/graph"
)

// residual arc representation shared by the combinatorial algorithms: arc
// 2i is the forward copy of input arc i, arc 2i+1 its reverse.
type resGraph struct {
	n     int
	head  []int
	cap   []int64
	cost  []int64
	first [][]int // per-vertex arc indices
}

func newResGraph(d *graph.Digraph) *resGraph {
	n := d.N()
	r := &resGraph{n: n, first: make([][]int, n)}
	for i := 0; i < d.M(); i++ {
		a := d.Arc(i)
		r.head = append(r.head, a.To, a.From)
		r.cap = append(r.cap, a.Cap, 0)
		r.cost = append(r.cost, a.Cost, -a.Cost)
		r.first[a.From] = append(r.first[a.From], 2*i)
		r.first[a.To] = append(r.first[a.To], 2*i+1)
	}
	return r
}

// flows returns the per-input-arc flow implied by the residual capacities.
func (r *resGraph) flows(d *graph.Digraph) []int64 {
	out := make([]int64, d.M())
	for i := 0; i < d.M(); i++ {
		out[i] = r.cap[2*i+1]
	}
	return out
}

// MaxFlow computes a maximum s-t flow with Dinic's algorithm. It returns
// the flow value and per-arc flows.
func MaxFlow(d *graph.Digraph, s, t int) (int64, []int64, error) {
	if err := checkST(d, s, t); err != nil {
		return 0, nil, err
	}
	r := newResGraph(d)
	var total int64
	level := make([]int, r.n)
	iter := make([]int, r.n)
	for {
		// BFS levels on the residual graph.
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, ai := range r.first[v] {
				if r.cap[ai] > 0 && level[r.head[ai]] < 0 {
					level[r.head[ai]] = level[v] + 1
					queue = append(queue, r.head[ai])
				}
			}
		}
		if level[t] < 0 {
			break
		}
		for i := range iter {
			iter[i] = 0
		}
		var dfs func(v int, f int64) int64
		dfs = func(v int, f int64) int64 {
			if v == t {
				return f
			}
			for ; iter[v] < len(r.first[v]); iter[v]++ {
				ai := r.first[v][iter[v]]
				u := r.head[ai]
				if r.cap[ai] <= 0 || level[u] != level[v]+1 {
					continue
				}
				pushed := f
				if r.cap[ai] < pushed {
					pushed = r.cap[ai]
				}
				if got := dfs(u, pushed); got > 0 {
					r.cap[ai] -= got
					r.cap[ai^1] += got
					return got
				}
			}
			return 0
		}
		for {
			f := dfs(s, math.MaxInt64)
			if f == 0 {
				break
			}
			total += f
		}
	}
	return total, r.flows(d), nil
}

type fpqItem struct {
	v    int
	dist int64
}
type fpq []fpqItem

func (q fpq) Len() int            { return len(q) }
func (q fpq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q fpq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *fpq) Push(x interface{}) { *q = append(*q, x.(fpqItem)) }
func (q *fpq) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// MinCostMaxFlowSSP computes an exact minimum-cost maximum s-t flow by
// successive shortest paths with Johnson potentials. Costs may be negative
// as long as the input has no negative-cost *cycle* consisting of forward
// arcs (Bellman–Ford initializes the potentials).
func MinCostMaxFlowSSP(d *graph.Digraph, s, t int) (value, cost int64, flows []int64, err error) {
	if err := checkST(d, s, t); err != nil {
		return 0, 0, nil, err
	}
	r := newResGraph(d)
	n := r.n
	const inf = math.MaxInt64 / 4

	// Bellman–Ford for initial potentials (handles negative arc costs).
	pot := make([]int64, n)
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[s] = 0
	for round := 0; round < n; round++ {
		changed := false
		for v := 0; v < n; v++ {
			if dist[v] >= inf {
				continue
			}
			for _, ai := range r.first[v] {
				if r.cap[ai] <= 0 {
					continue
				}
				u := r.head[ai]
				if nd := dist[v] + r.cost[ai]; nd < dist[u] {
					dist[u] = nd
					changed = true
					if round == n-1 {
						return 0, 0, nil, fmt.Errorf("flow: negative-cost cycle detected")
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	for v := 0; v < n; v++ {
		if dist[v] < inf {
			pot[v] = dist[v]
		}
	}

	prevArc := make([]int, n)
	for {
		// Dijkstra with reduced costs.
		for i := range dist {
			dist[i] = inf
			prevArc[i] = -1
		}
		dist[s] = 0
		q := &fpq{{v: s}}
		for q.Len() > 0 {
			it := heap.Pop(q).(fpqItem)
			if it.dist > dist[it.v] {
				continue
			}
			for _, ai := range r.first[it.v] {
				if r.cap[ai] <= 0 {
					continue
				}
				u := r.head[ai]
				rc := r.cost[ai] + pot[it.v] - pot[u]
				if nd := it.dist + rc; nd < dist[u] {
					dist[u] = nd
					prevArc[u] = ai
					heap.Push(q, fpqItem{v: u, dist: nd})
				}
			}
		}
		if dist[t] >= inf {
			break
		}
		for v := 0; v < n; v++ {
			if dist[v] < inf {
				pot[v] += dist[v]
			}
		}
		// Bottleneck along the path.
		push := int64(inf)
		for v := t; v != s; {
			ai := prevArc[v]
			if r.cap[ai] < push {
				push = r.cap[ai]
			}
			v = r.head[ai^1]
		}
		for v := t; v != s; {
			ai := prevArc[v]
			r.cap[ai] -= push
			r.cap[ai^1] += push
			v = r.head[ai^1]
		}
		value += push
	}
	flows = r.flows(d)
	for i, f := range flows {
		cost += f * d.Arc(i).Cost
	}
	return value, cost, flows, nil
}

// ErrBadQuery is returned (wrapped, with detail) when a flow query is
// malformed: terminals out of range, s == t, or — for the LP pipeline —
// an empty digraph. It is raised at the API boundary, before any LP
// formulation work starts, and is detected with errors.Is.
var ErrBadQuery = errors.New("flow: bad query")

func checkST(d *graph.Digraph, s, t int) error {
	if s < 0 || s >= d.N() || t < 0 || t >= d.N() || s == t {
		return fmt.Errorf("%w: terminals s=%d t=%d for %d vertices", ErrBadQuery, s, t, d.N())
	}
	return nil
}

// checkNonEmpty guards the LP pipeline, which cannot formulate an LP over
// zero arcs. The combinatorial baselines accept arcless digraphs (their
// maximum flow is trivially zero), so this check is not part of checkST.
func checkNonEmpty(d *graph.Digraph) error {
	if d == nil || d.N() == 0 || d.M() == 0 {
		n, m := 0, 0
		if d != nil {
			n, m = d.N(), d.M()
		}
		return fmt.Errorf("%w: empty digraph (%d vertices, %d arcs)", ErrBadQuery, n, m)
	}
	return nil
}

// FlowValue returns the net flow out of s.
func FlowValue(d *graph.Digraph, s int, flows []int64) int64 {
	var v int64
	for i := 0; i < d.M(); i++ {
		a := d.Arc(i)
		if a.From == s {
			v += flows[i]
		}
		if a.To == s {
			v -= flows[i]
		}
	}
	return v
}

// FlowCost returns Σ q_e f_e.
func FlowCost(d *graph.Digraph, flows []int64) int64 {
	var c int64
	for i := 0; i < d.M(); i++ {
		c += flows[i] * d.Arc(i).Cost
	}
	return c
}

// Feasible checks capacity and conservation constraints of an s-t flow.
func Feasible(d *graph.Digraph, s, t int, flows []int64) error {
	if len(flows) != d.M() {
		return fmt.Errorf("flow: %d flows for %d arcs", len(flows), d.M())
	}
	excess := make([]int64, d.N())
	for i := 0; i < d.M(); i++ {
		a := d.Arc(i)
		f := flows[i]
		if f < 0 || f > a.Cap {
			return fmt.Errorf("flow: arc %d flow %d outside [0, %d]", i, f, a.Cap)
		}
		excess[a.From] -= f
		excess[a.To] += f
	}
	for v := range excess {
		if v == s || v == t {
			continue
		}
		if excess[v] != 0 {
			return fmt.Errorf("flow: conservation violated at %d by %d", v, excess[v])
		}
	}
	if excess[t] != -excess[s] {
		return fmt.Errorf("flow: source/sink imbalance")
	}
	return nil
}

// CertifyOptimal checks that flows is an exact minimum-cost maximum flow:
// feasibility, no residual augmenting s-t path (maximality) and no
// negative-cost residual cycle (cost optimality). This is the internal
// verification the BCC pipeline uses before accepting a rounded LP
// solution.
func CertifyOptimal(d *graph.Digraph, s, t int, flows []int64) error {
	if err := Feasible(d, s, t, flows); err != nil {
		return err
	}
	r := newResGraph(d)
	for i := 0; i < d.M(); i++ {
		r.cap[2*i] = d.Arc(i).Cap - flows[i]
		r.cap[2*i+1] = flows[i]
	}
	// Maximality: BFS in the residual graph.
	seen := make([]bool, r.n)
	seen[s] = true
	queue := []int{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, ai := range r.first[v] {
			if r.cap[ai] > 0 && !seen[r.head[ai]] {
				seen[r.head[ai]] = true
				queue = append(queue, r.head[ai])
			}
		}
	}
	if seen[t] {
		return fmt.Errorf("flow: augmenting path exists — not a maximum flow")
	}
	// Optimality: Bellman–Ford from a virtual super-source over residual
	// arcs; relaxation after n−1 rounds ⇒ negative cycle.
	dist := make([]int64, r.n)
	for round := 0; round < r.n; round++ {
		changed := false
		for v := 0; v < r.n; v++ {
			for _, ai := range r.first[v] {
				if r.cap[ai] <= 0 {
					continue
				}
				u := r.head[ai]
				if nd := dist[v] + r.cost[ai]; nd < dist[u] {
					dist[u] = nd
					changed = true
				}
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("flow: negative-cost residual cycle — not minimum cost")
}
