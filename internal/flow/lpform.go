package flow

import (
	"math"
	"math/rand"

	"bcclap/internal/graph"
	"bcclap/internal/linalg"
	"bcclap/internal/lp"
)

// LPForm is the auxiliary linear program of Section 5 for a min-cost
// max-flow instance: variables (x ∈ R^m, y, z ∈ R^{n'}, F ∈ R) with
// n' = |V|−1 (the source row of the incidence matrix is omitted),
// constraints Bx + y − z − F·e_t = 0, box bounds, and objective
// q̃ᵀx + λ(1ᵀy + 1ᵀz) − flowBonus·F.
type LPForm struct {
	D    *graph.Digraph
	S, T int

	Prob *lp.Problem
	X0   []float64

	// Index layout inside the variable vector.
	NPrime int // |V|−1
	OffY   int
	OffZ   int
	OffF   int
}

// vertexIndex maps original vertex ids to LP row ids, skipping the source.
func vertexIndex(n, s int) (idx []int) {
	idx = make([]int, n)
	j := 0
	for v := 0; v < n; v++ {
		if v == s {
			idx[v] = -1
			continue
		}
		idx[v] = j
		j++
	}
	return idx
}

// NewLPFormStructure builds everything about the LP that does not depend
// on the cost perturbation: the constraint matrix, a function of the
// topology and (s, t) only, and the bounds and interior starting point
// (writeBounds). A session caches this structure per terminal pair and
// calls Perturb once per solve attempt, so repeated queries skip the O(m)
// formulation rebuild (and the backend bound to the matrix stays valid
// across attempts and arc patches).
func NewLPFormStructure(d *graph.Digraph, s, t int) (*LPForm, error) {
	if err := checkNonEmpty(d); err != nil {
		return nil, err
	}
	if err := checkST(d, s, t); err != nil {
		return nil, err
	}
	n, m := d.N(), d.M()
	nPrime := n - 1
	vidx := vertexIndex(n, s)
	mPrime := m + 2*nPrime + 1
	offY, offZ, offF := m, m+nPrime, m+2*nPrime

	var ts []linalg.Triple
	for i := 0; i < m; i++ {
		a := d.Arc(i)
		if j := vidx[a.To]; j >= 0 {
			ts = append(ts, linalg.Triple{Row: i, Col: j, Val: 1})
		}
		if j := vidx[a.From]; j >= 0 {
			ts = append(ts, linalg.Triple{Row: i, Col: j, Val: -1})
		}
	}
	for j := 0; j < nPrime; j++ {
		ts = append(ts,
			linalg.Triple{Row: offY + j, Col: j, Val: 1},
			linalg.Triple{Row: offZ + j, Col: j, Val: -1},
		)
	}
	ts = append(ts, linalg.Triple{Row: offF, Col: vidx[t], Val: -1})

	form := &LPForm{
		D: d, S: s, T: t,
		Prob: &lp.Problem{
			A: linalg.NewCSR(mPrime, nPrime, ts), B: make([]float64, nPrime),
			C: make([]float64, mPrime), L: make([]float64, mPrime), U: make([]float64, mPrime),
		},
		X0:     make([]float64, mPrime),
		NPrime: nPrime, OffY: offY, OffZ: offZ, OffF: offF,
	}
	form.writeBounds()
	return form, nil
}

// writeBounds writes the upper bounds Prob.U (capacities for x, M-derived
// for y, z and F) and the interior starting point X0 from the current
// arcs, in place; ApplyArcDeltas calls it after every patch.
func (f *LPForm) writeBounds() {
	d := f.D
	n, m := d.N(), d.M()
	bigM := formBigM(d)
	fMax := 2 * float64(n) * float64(bigM) * float64(m)
	yMax := 4 * (fMax + float64(m)*float64(bigM) + 1)
	u, x0 := f.Prob.U, f.X0
	for i := 0; i < m; i++ {
		u[i] = float64(d.Arc(i).Cap)
	}
	for j := 0; j < f.NPrime; j++ {
		u[f.OffY+j] = yMax
		u[f.OffZ+j] = yMax
	}
	u[f.OffF] = fMax

	// Interior starting point: x = c/2, F = fMax/2, and y, z split the
	// imbalance r = F·e_t − B(c/2) symmetrically around yMax/2.
	for i := 0; i < m; i++ {
		x0[i] = float64(d.Arc(i).Cap) / 2
	}
	f0 := fMax / 2
	x0[f.OffF] = f0
	vidx := vertexIndex(n, f.S)
	r := make([]float64, f.NPrime)
	for i := 0; i < m; i++ {
		arc := d.Arc(i)
		if j := vidx[arc.To]; j >= 0 {
			r[j] -= x0[i]
		}
		if j := vidx[arc.From]; j >= 0 {
			r[j] += x0[i]
		}
	}
	r[vidx[f.T]] += f0
	for j := 0; j < f.NPrime; j++ {
		// |r_j| ≤ (m·M + fMax)/2 < yMax, so y and z stay in (0, yMax).
		x0[f.OffY+j] = yMax/2 + r[j]/2
		x0[f.OffZ+j] = yMax/2 - r[j]/2
	}
}

// formBigM is the scale parameter M = max(capacity, |cost|, 1) of Section 5.
func formBigM(d *graph.Digraph) int64 {
	bigM := d.MaxCap()
	if c := d.MaxAbsCost(); c > bigM {
		bigM = c
	}
	if bigM < 1 {
		bigM = 1
	}
	return bigM
}

// Perturb draws a fresh Daitch–Spielman cost perturbation and writes the
// resulting objective into the LP (only the cost vector changes; matrix,
// bounds and starting point are perturbation-independent). It multiplies
// all costs by 4m²M² and adds an independent uniform integer from
// [1, 2mM] to each arc, which makes the optimum unique with probability
// ≥ 1/2; rnd drives the perturbation (callers retry with fresh
// randomness on certification failure, the boosting of the paper's
// footnote 7). It consumes exactly m draws from rnd.
//
// Big-M constants: the paper's λ = 440m⁴M̃²M³ and flow bonus 2n·M̃ certify
// exactness in exact arithmetic but overflow float64's 53-bit mantissa for
// any interesting instance. We use the smallest constants with the same
// one-way domination chain (flowBonus > any achievable routing cost,
// λ > flowBonus's worth of slack), which preserves the argument: slack is
// never worth buying, and flow units always are.
func (f *LPForm) Perturb(rnd *rand.Rand) {
	d, m := f.D, f.D.M()
	bigM := formBigM(d)
	scale := 4 * int64(m) * int64(m) * bigM * bigM
	q := make([]int64, m)
	for i := 0; i < m; i++ {
		q[i] = d.Arc(i).Cost*scale + 1 + rnd.Int63n(2*int64(m)*bigM)
	}
	// Capacity-weighted worst routing cost, then the domination chain.
	var worstCost float64
	for i := 0; i < m; i++ {
		worstCost += float64(abs64(q[i])) * float64(d.Arc(i).Cap)
	}
	flowBonus := 4*worstCost + 1
	lambda := 8 * flowBonus

	c := f.Prob.C
	for i := 0; i < m; i++ {
		c[i] = float64(q[i])
	}
	for j := 0; j < f.NPrime; j++ {
		c[f.OffY+j] = lambda
		c[f.OffZ+j] = lambda
	}
	c[f.OffF] = -flowBonus
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// RoundFlow converts an approximate LP point into integral per-arc flows:
// x̃ = (1−ε)x rounded to the nearest integers, as in Section 5 (with the
// unique perturbed optimum, every x_e is within 1/6 of its integral
// value).
func (f *LPForm) RoundFlow(x []float64) []int64 {
	m := f.D.M()
	eps := 1.0 / (40 * float64(m) * float64(m))
	out := make([]int64, m)
	for i := 0; i < m; i++ {
		v := (1 - eps) * x[i]
		r := math.Round(v)
		if r < 0 {
			r = 0
		}
		if c := float64(f.D.Arc(i).Cap); r > c {
			r = c
		}
		out[i] = int64(r)
	}
	return out
}
