package sparsify

import (
	"math/rand"

	"bcclap/internal/graph"
	"bcclap/internal/sim"
	"bcclap/internal/spanner"
)

// SeededBCC implements the extension the paper sketches in footnote 4: in
// the Broadcast Congested Clique a designated leader can sample a short
// random seed and broadcast it once (polylogarithmic overhead); every
// vertex then expands the seed with the same pseudorandom function, so the
// *a-priori* sampling of Algorithm 4 becomes directly implementable — both
// endpoints of an edge evaluate the same coin flip locally, and no
// on-the-fly Connect sampling is needed.
//
// The PRF is a splitmix64 hash of (seed, edge id, iteration); the paper
// points at bounded-independence sampling (Doron et al.) for the w.h.p.
// analysis — hash-based expansion exercises the identical communication
// pattern (one seed broadcast, then silence).
func SeededBCC(g *graph.Graph, par Params, seed int64, net *sim.Network) *Result {
	par = par.normalize()
	work := g.Clone()
	m := work.M()
	alive := make([]bool, m)
	for e := 0; e < m; e++ {
		alive[e] = true
	}
	res := &Result{OutDeg: make([]int, g.N())}
	startRounds := net.Rounds()
	// The leader broadcasts the O(log²n)-bit seed once.
	net.BeginPhase()
	net.Broadcast(0, SeedBitsBCC(g.N()))
	net.EndPhase()
	// Spanner computations still run distributed (they are deterministic
	// given the marking bits, which also derive from the shared seed).
	opts := spanner.Options{
		MarkRand: rand.New(rand.NewSource(seed ^ 0x5bd1e995)),
		EdgeRand: rand.New(rand.NewSource(seed ^ 0x27d4eb2f)),
		Net:      net,
	}
	coin := func(edge, iter int) bool {
		h := prf(uint64(seed), uint64(edge), uint64(iter))
		// Keep with probability 1/4: two pseudorandom bits.
		return h&3 == 0
	}
	for it := 0; it < par.Iterations; it++ {
		bundle := spanner.Bundle(work, alive, nil, par.K, par.T, opts)
		res.BundleSizes = append(res.BundleSizes, len(bundle.B))
		for v, d := range bundle.OutDeg {
			res.OutDeg[v] += d
		}
		inB := make(map[int]bool, len(bundle.B))
		for _, e := range bundle.B {
			inB[e] = true
		}
		for e := 0; e < m; e++ {
			if !alive[e] || inB[e] {
				continue
			}
			// Both endpoints evaluate the same shared-seed coin — no
			// broadcast needed for the sampling itself.
			if coin(e, it) {
				work.SetWeight(e, 4*work.Edge(e).W)
			} else {
				alive[e] = false
			}
		}
	}
	res.H = graph.New(g.N())
	for e := 0; e < m; e++ {
		if alive[e] {
			ed := work.Edge(e)
			if _, err := res.H.AddEdge(ed.U, ed.V, ed.W); err != nil {
				panic(err)
			}
			res.KeptEdges = append(res.KeptEdges, e)
		}
	}
	res.Rounds = net.Rounds() - startRounds
	return res
}

// prf is a splitmix64-style hash of three words.
func prf(a, b, c uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9 + c*0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SeedBitsBCC returns the seed size SeededBCC broadcasts: Θ(log²n) bits as
// in footnote 4's "random seed of polylogarithmic size".
func SeedBitsBCC(n int) int {
	b := sim.BitsForID(n)
	return 2 * b * b
}
