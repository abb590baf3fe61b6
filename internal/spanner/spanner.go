package spanner

import (
	"math"
	"math/rand"
	"sort"

	"bcclap/internal/graph"
	"bcclap/internal/sim"
)

// Options configures a Spanner run.
type Options struct {
	// MarkRand supplies the cluster-marking coin flips (Step 1). Keeping it
	// separate from EdgeRand lets tests couple the marking randomness across
	// runs, exactly as the proof of Lemma 3.1 does ("our assumption is that
	// these random bits are the same for both algorithms").
	MarkRand *rand.Rand
	// EdgeRand supplies the edge-existence samples inside Connect.
	EdgeRand *rand.Rand
	// Net, if non-nil, receives the round accounting (Broadcast CONGEST or
	// BCC). Nil runs the algorithm without accounting.
	Net *sim.Network
}

// Result is the output of a Spanner run.
type Result struct {
	// FPlus are the edge indices placed in F⁺ (the spanner edges; they
	// exist).
	FPlus []int
	// FMinus are the edge indices placed in F⁻ (sampled non-existent).
	FMinus []int
	// OutDeg[v] counts spanner edges oriented out of v (Lemma 3.1's
	// orientation: the vertex whose Connect call added the edge).
	OutDeg []int
	// FPlusV and FMinusV are the per-vertex views built *only* from local
	// decisions and broadcast deductions; tests verify they are consistent
	// across endpoints (the paper's "implicitly learning" claim).
	FPlusV  []map[int]bool
	FMinusV []map[int]bool
}

// run carries the mutable state of one Spanner execution.
type run struct {
	g     *graph.Graph
	p     []float64
	k     int
	opts  Options
	n     int
	wBits int
	idB   int
	eidB  int

	alive     []bool // edge considered at all (input subgraph mask)
	added     []bool // edge ∈ F⁺
	deleted   []bool // edge ∈ F⁻
	clusterOf []int  // center vertex of v's current cluster, or -1
	joins     []int  // pending cluster joins, applied at end of phase
	// wThresh[v] is the lexicographic (weight, neighbor ID, edge) key of
	// the edge v used to join a marked cluster in Step 2 of the current
	// phase; Step 3 only considers candidates strictly below it, matching
	// Baswana–Sen's "all edges lighter than the joining edge, ties broken
	// by neighbor identifiers".
	wThresh []candidate

	res *Result
}

// broadcastMsg is the payload of the connect broadcasts. In the paper the
// message is (ID(X), u, w(u,v)) or (ID(X), ⊥); we additionally carry the
// edge index to disambiguate parallel edges in multigraphs (log m extra
// bits, charged).
type broadcastMsg struct {
	from      int
	targetID  int // cluster ID the broadcast refers to (-1 in step 2)
	accepted  int // accepted edge index, or -1 for ⊥
	acceptedU int
	w         float64
	wlimit    float64 // W^(i)_v, piggybacked in step 2
}

// Run executes Spanner(V, E|alive, w, p, k). alive masks the edge set (nil
// means all edges); p gives per-edge existence probabilities (nil means all
// 1, which reduces the algorithm to Baswana–Sen). k ≥ 1 yields stretch
// 2k−1.
func Run(g *graph.Graph, alive []bool, p []float64, k int, opts Options) *Result {
	if k < 1 {
		panic("spanner: k must be >= 1")
	}
	if opts.MarkRand == nil {
		opts.MarkRand = rand.New(rand.NewSource(1))
	}
	if opts.EdgeRand == nil {
		opts.EdgeRand = rand.New(rand.NewSource(2))
	}
	n, m := g.N(), g.M()
	r := &run{
		g: g, p: p, k: k, opts: opts, n: n,
		alive:     make([]bool, m),
		added:     make([]bool, m),
		deleted:   make([]bool, m),
		clusterOf: make([]int, n),
		joins:     make([]int, n),
		wThresh:   make([]candidate, n),
		res: &Result{
			OutDeg:  make([]int, n),
			FPlusV:  make([]map[int]bool, n),
			FMinusV: make([]map[int]bool, n),
		},
	}
	for v := 0; v < n; v++ {
		r.clusterOf[v] = v
		r.res.FPlusV[v] = make(map[int]bool)
		r.res.FMinusV[v] = make(map[int]bool)
	}
	if alive == nil {
		for e := range r.alive {
			r.alive[e] = true
		}
	} else {
		copy(r.alive, alive)
	}
	r.idB = sim.BitsForID(n)
	r.eidB = sim.BitsForID(m + 1)
	maxW := g.MaxWeight()
	r.wBits = sim.BitsForInt(int64(math.Ceil(maxW)))

	markProb := math.Pow(float64(n), -1/float64(k))

	marked := make(map[int]bool)
	active := make(map[int]bool, n) // centers of R_i
	for v := 0; v < n; v++ {
		active[v] = true
	}

	for phase := 1; phase <= k-1; phase++ {
		// Step 1: each active cluster center marks itself with probability
		// n^(-1/k) and floods the result down its cluster tree (depth ≤
		// phase, charged analytically).
		marked = make(map[int]bool)
		centers := sortedKeys(active)
		for _, c := range centers {
			if r.opts.MarkRand.Float64() < markProb {
				marked[c] = true
			}
		}
		r.opts.Net.ChargeRounds(phase)

		// Step 2: vertices in unmarked clusters try to connect to a marked
		// cluster; one broadcast each, carrying W^(i)_v.
		for v := range r.wThresh {
			r.wThresh[v] = infCandidate()
		}
		for v := range r.joins {
			r.joins[v] = -1
		}
		r.step2(marked)

		// Step 3: connections between unmarked clusters, split by cluster
		// ID so no edge has two simultaneous deciders.
		r.step3(marked, true)  // 3.1: targets with smaller ID
		r.step3(marked, false) // 3.2: targets with bigger ID

		// End of phase: apply joins; vertices of unmarked clusters that did
		// not join become unclustered.
		for v := 0; v < n; v++ {
			switch {
			case r.joins[v] >= 0:
				r.clusterOf[v] = r.joins[v]
			case r.clusterOf[v] >= 0 && !marked[r.clusterOf[v]]:
				r.clusterOf[v] = -1
			}
		}
		active = marked
	}

	// Step 4: connect everything to the remaining clusters R_k.
	r.step4(active)

	for e := 0; e < m; e++ {
		if r.added[e] {
			r.res.FPlus = append(r.res.FPlus, e)
		}
		if r.deleted[e] {
			r.res.FMinus = append(r.res.FMinus, e)
		}
	}
	return r.res
}

// pEff is the effective existence probability of an edge: 1 once it has
// been added to F⁺ (its existence is decided), p_e otherwise.
func (r *run) pEff(e int) float64 {
	if r.added[e] {
		return 1
	}
	if r.p == nil {
		return 1
	}
	return r.p[e]
}

// candidate orders edges the way Connect sorts them: ascending weight,
// ties by neighbor ID, then edge index (the extra tiebreak handles parallel
// edges).
type candidate struct {
	e, u int
	w    float64
}

func (c candidate) less(d candidate) bool {
	if c.w != d.w {
		return c.w < d.w
	}
	if c.u != d.u {
		return c.u < d.u
	}
	return c.e < d.e
}

// infCandidate is the threshold used when a vertex joined no marked cluster
// (W^(i)_v = ∞): every candidate passes the Step 3 filter.
func infCandidate() candidate {
	return candidate{e: math.MaxInt32, u: math.MaxInt32, w: math.Inf(1)}
}

// connect is the Connect procedure (Algorithm 2): walk the sorted
// candidates, sample each, accept the first that exists.
func (r *run) connect(cands []candidate) (acc candidate, ok bool, rejected []candidate) {
	sort.Slice(cands, func(i, j int) bool { return cands[i].less(cands[j]) })
	for _, c := range cands {
		if r.opts.EdgeRand.Float64() <= r.pEff(c.e) {
			return c, true, rejected
		}
		rejected = append(rejected, c)
	}
	return candidate{}, false, rejected
}

// decide applies the decider-side outcome of a Connect call by vertex v.
func (r *run) decide(v int, acc candidate, ok bool, rejected []candidate) {
	for _, c := range rejected {
		r.deleted[c.e] = true
		r.res.FMinusV[v][c.e] = true
	}
	if ok {
		if !r.added[acc.e] {
			r.added[acc.e] = true
			r.res.OutDeg[v]++
		}
		r.res.FPlusV[v][acc.e] = true
	}
}

// deduce applies the neighbor-side rules: x, holding candidate c toward the
// decider msg.from, concludes from the broadcast alone whether its edge was
// accepted, rejected, or untouched (the three rules under Step 2/3 in the
// paper, with the edge-index tiebreak).
func (r *run) deduce(x int, c candidate, msg broadcastMsg) {
	if msg.accepted < 0 {
		// Rule 1: the decider broadcast ⊥ — every candidate was rejected.
		r.res.FMinusV[x][c.e] = true
		return
	}
	if msg.accepted == c.e {
		r.res.FPlusV[x][c.e] = true
		return
	}
	accepted := candidate{e: msg.accepted, u: msg.acceptedU, w: msg.w}
	// The decider's view of the accepted candidate names the *other*
	// endpoint; from x's side the comparison key for its own edge uses x's
	// ID, and for the accepted edge the broadcast neighbor ID.
	if c.less(accepted) {
		// Rules 2–3: x's edge precedes the accepted one in Connect's order,
		// so it must have been sampled and rejected.
		r.res.FMinusV[x][c.e] = true
	}
}

// broadcastCost returns the bit size of a connect broadcast.
func (r *run) broadcastCost(bot bool) int {
	if bot {
		return r.idB + 1 + r.wBits
	}
	return 2*r.idB + r.eidB + r.wBits
}

// step2 implements Step 2 of each phase: vertices in unmarked clusters
// connect to marked clusters.
func (r *run) step2(marked map[int]bool) {
	n := r.n
	r.opts.Net.BeginPhase()
	type decision struct {
		v    int
		msg  broadcastMsg
		acc  candidate
		ok   bool
		rejs []candidate
	}
	var decisions []decision
	// Candidate sets are evaluated against the state at the start of the
	// synchronous step.
	liveAtStart := make([]bool, r.g.M())
	for e := range liveAtStart {
		liveAtStart[e] = r.alive[e] && !r.deleted[e]
	}
	for v := 0; v < n; v++ {
		cv := r.clusterOf[v]
		if cv < 0 || marked[cv] {
			continue
		}
		// N: undeleted incident edges whose other endpoint lies in a marked
		// cluster.
		var cands []candidate
		for _, e := range r.g.IncidentEdges(v) {
			if !liveAtStart[e] {
				continue
			}
			u := r.g.Other(e, v)
			cu := r.clusterOf[u]
			if cu >= 0 && marked[cu] {
				cands = append(cands, candidate{e: e, u: u, w: r.g.Edge(e).W})
			}
		}
		acc, ok, rejs := r.connect(cands)
		msg := broadcastMsg{from: v, targetID: -1, accepted: -1, wlimit: math.Inf(1)}
		if ok {
			msg.accepted = acc.e
			msg.acceptedU = acc.u
			msg.w = acc.w
			msg.wlimit = acc.w
			r.joins[v] = r.clusterOf[acc.u]
		}
		if ok {
			r.wThresh[v] = acc
		} else {
			r.wThresh[v] = infCandidate()
		}
		decisions = append(decisions, decision{v: v, msg: msg, acc: acc, ok: ok, rejs: rejs})
		r.opts.Net.Broadcast(v, r.broadcastCost(!ok))
	}
	r.opts.Net.EndPhase()
	// Apply decisions and neighbor deductions synchronously.
	for _, d := range decisions {
		r.decide(d.v, d.acc, d.ok, d.rejs)
	}
	for _, d := range decisions {
		v := d.v
		for _, e := range r.g.IncidentEdges(v) {
			if !liveAtStart[e] {
				continue
			}
			u := r.g.Other(e, v)
			cu := r.clusterOf[u]
			if cu < 0 || !marked[cu] {
				continue
			}
			r.deduce(u, candidate{e: e, u: u, w: r.g.Edge(e).W}, d.msg)
		}
	}
}

// step3 implements Steps 3.1 (smallerID=true) and 3.2 (smallerID=false):
// vertices in unmarked clusters connect to neighboring unmarked clusters,
// restricted to edges with weight ≤ W^(i)_v.
func (r *run) step3(marked map[int]bool, smallerID bool) {
	r.clusterConnectStep(
		func(v int) (bool, int) { // decider: vertex in an unmarked cluster
			cv := r.clusterOf[v]
			if cv < 0 || marked[cv] {
				return false, 0
			}
			return true, cv
		},
		func(v, cu int) bool { // target filter: unmarked neighbor clusters by ID side
			cv := r.clusterOf[v]
			if cu < 0 || marked[cu] || cu == cv {
				return false
			}
			if smallerID {
				return cu < cv
			}
			return cu > cv
		},
		true, // apply the W^(i)_v filter
	)
}

// step4 implements Step 4: after the k−1 phases, connect every vertex to
// each neighboring remaining cluster in R_k, in three conflict-free
// substeps.
func (r *run) step4(active map[int]bool) {
	// 4.1: unclustered vertices connect to every neighboring remaining
	// cluster.
	r.clusterConnectStep(
		func(v int) (bool, int) { return r.clusterOf[v] < 0, -1 },
		func(v, cu int) bool { return cu >= 0 && active[cu] },
		false,
	)
	// 4.2: clustered vertices toward remaining clusters with smaller ID.
	r.clusterConnectStep(
		func(v int) (bool, int) {
			cv := r.clusterOf[v]
			return cv >= 0 && active[cv], cv
		},
		func(v, cu int) bool {
			cv := r.clusterOf[v]
			return cu >= 0 && active[cu] && cu < cv
		},
		false,
	)
	// 4.3: clustered vertices toward remaining clusters with bigger ID.
	r.clusterConnectStep(
		func(v int) (bool, int) {
			cv := r.clusterOf[v]
			return cv >= 0 && active[cv], cv
		},
		func(v, cu int) bool {
			cv := r.clusterOf[v]
			return cu >= 0 && active[cu] && cu > cv
		},
		false,
	)
}

// clusterConnectStep runs one synchronous substep in which each decider
// vertex v runs Connect once per eligible target cluster, broadcasts the
// outcome, and neighbors deduce their edges' fates.
func (r *run) clusterConnectStep(isDecider func(int) (bool, int), isTarget func(v, cu int) bool, wFilter bool) {
	n := r.n
	r.opts.Net.BeginPhase()
	type decision struct {
		v    int
		msg  broadcastMsg
		acc  candidate
		ok   bool
		rejs []candidate
	}
	var decisions []decision
	// Candidate sets are computed against the state at the start of the
	// substep (synchronous model): snapshot deletions.
	liveAtStart := make([]bool, r.g.M())
	for e := range liveAtStart {
		liveAtStart[e] = r.alive[e] && !r.deleted[e]
	}
	for v := 0; v < n; v++ {
		dec, _ := isDecider(v)
		if !dec {
			continue
		}
		// Group live incident edges by target cluster.
		byCluster := make(map[int][]candidate)
		for _, e := range r.g.IncidentEdges(v) {
			if !liveAtStart[e] {
				continue
			}
			u := r.g.Other(e, v)
			cu := r.clusterOf[u]
			if !isTarget(v, cu) {
				continue
			}
			c := candidate{e: e, u: u, w: r.g.Edge(e).W}
			if wFilter && !c.less(r.wThresh[v]) {
				continue
			}
			byCluster[cu] = append(byCluster[cu], c)
		}
		for _, cu := range sortedKeys2(byCluster) {
			cands := byCluster[cu]
			acc, ok, rejs := r.connect(cands)
			msg := broadcastMsg{from: v, targetID: cu, accepted: -1}
			if ok {
				msg.accepted = acc.e
				msg.acceptedU = acc.u
				msg.w = acc.w
			}
			decisions = append(decisions, decision{v: v, msg: msg, acc: acc, ok: ok, rejs: rejs})
			r.opts.Net.Broadcast(v, r.broadcastCost(!ok))
		}
	}
	r.opts.Net.EndPhase()
	for _, d := range decisions {
		r.decide(d.v, d.acc, d.ok, d.rejs)
	}
	for _, d := range decisions {
		v := d.v
		for _, e := range r.g.IncidentEdges(v) {
			if !liveAtStart[e] {
				continue
			}
			u := r.g.Other(e, v)
			if r.clusterOf[u] != d.msg.targetID {
				continue
			}
			c := candidate{e: e, u: u, w: r.g.Edge(e).W}
			if wFilter && !c.less(r.wThresh[v]) {
				continue
			}
			r.deduce(u, c, d.msg)
		}
	}
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedKeys2(m map[int][]candidate) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
