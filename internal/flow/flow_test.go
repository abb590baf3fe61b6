package flow

import (
	"math/rand"
	"testing"

	"bcclap/internal/graph"
)

func diamond(t *testing.T) *graph.Digraph {
	t.Helper()
	// s=0, t=3; two parallel routes with different costs.
	d := graph.NewDigraph(4)
	add := func(u, v int, c, q int64) {
		if _, err := d.AddArc(u, v, c, q); err != nil {
			t.Fatal(err)
		}
	}
	add(0, 1, 3, 1)
	add(0, 2, 2, 4)
	add(1, 3, 2, 1)
	add(2, 3, 2, 1)
	add(1, 2, 1, 1)
	return d
}

func TestMaxFlowDiamond(t *testing.T) {
	d := diamond(t)
	v, flows, err := MaxFlow(d, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v != 4 {
		t.Fatalf("max flow %d, want 4", v)
	}
	if err := Feasible(d, 0, 3, flows); err != nil {
		t.Fatal(err)
	}
	if FlowValue(d, 0, flows) != 4 {
		t.Fatal("flow value mismatch")
	}
}

func TestSSPDiamond(t *testing.T) {
	d := diamond(t)
	v, c, flows, err := MinCostMaxFlowSSP(d, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v != 4 {
		t.Fatalf("value %d, want 4", v)
	}
	// Cheapest routing of 4 units: 2 via 0-1-3 (cost 2 each), 1 via the
	// shortcut 0-1-2-3 (cost 3) and 1 via 0-2-3 (cost 5): total 12.
	// Ignoring the shortcut would cost 2·2 + 2·5 = 14.
	if c != 12 {
		t.Fatalf("cost %d, want 12", c)
	}
	if err := CertifyOptimal(d, 0, 3, flows); err != nil {
		t.Fatal(err)
	}
}

func TestSSPMatchesMaxFlowValueRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		d := graph.RandomFlowNetwork(8, 0.25, 5, 4, rnd)
		vMax, _, err := MaxFlow(d, 0, d.N()-1)
		if err != nil {
			t.Fatal(err)
		}
		vSSP, _, flows, err := MinCostMaxFlowSSP(d, 0, d.N()-1)
		if err != nil {
			t.Fatal(err)
		}
		if vMax != vSSP {
			t.Fatalf("trial %d: SSP value %d vs Dinic %d", trial, vSSP, vMax)
		}
		if err := CertifyOptimal(d, 0, d.N()-1, flows); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestCertifyRejectsSuboptimal(t *testing.T) {
	d := diamond(t)
	// Zero flow: feasible but not maximum.
	zero := make([]int64, d.M())
	if err := CertifyOptimal(d, 0, 3, zero); err == nil {
		t.Fatal("zero flow certified")
	}
	// Max-flow but not min-cost: route around the shortcut.
	flows := []int64{2, 2, 2, 2, 0}
	if err := Feasible(d, 0, 3, flows); err != nil {
		t.Fatal(err)
	}
	if err := CertifyOptimal(d, 0, 3, flows); err == nil {
		t.Fatal("suboptimal-cost flow certified")
	}
	// Infeasible: capacity violation.
	bad := []int64{3, 2, 2, 2, 1}
	if err := CertifyOptimal(d, 0, 3, bad); err == nil {
		t.Fatal("infeasible flow certified")
	}
}

func TestLPFormStructure(t *testing.T) {
	d := diamond(t)
	rnd := rand.New(rand.NewSource(7))
	form, err := NewLPFormStructure(d, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	form.Perturb(rnd)
	if form.NPrime != 3 {
		t.Fatalf("NPrime = %d", form.NPrime)
	}
	wantRows := d.M() + 2*form.NPrime + 1
	if form.Prob.A.Rows() != wantRows || form.Prob.A.Cols() != form.NPrime {
		t.Fatalf("A is %dx%d, want %dx%d", form.Prob.A.Rows(), form.Prob.A.Cols(), wantRows, form.NPrime)
	}
	if err := form.Prob.Validate(); err != nil {
		t.Fatal(err)
	}
	if r := form.Prob.Residual(form.X0); r > 1e-9 {
		t.Fatalf("interior point violates constraints by %g", r)
	}
	for i, v := range form.X0 {
		if v <= form.Prob.L[i] || v >= form.Prob.U[i] {
			t.Fatalf("x0[%d] = %v not strictly inside [%v, %v]", i, v, form.Prob.L[i], form.Prob.U[i])
		}
	}
	// Perturbed costs preserve the original ordering scale-wise: arc i
	// costs cost_i·4m²M² plus a draw from [1, 2mM].
	m, bigM := int64(d.M()), formBigM(d)
	scale := 4 * m * m * bigM * bigM
	for i, c := range form.Prob.C[:m] {
		lo := float64(d.Arc(i).Cost * scale)
		if c <= lo || c > lo+float64(2*m*bigM) {
			t.Fatalf("perturbation %v out of range (%v, %v] on arc %d", c, lo, lo+float64(2*m*bigM), i)
		}
	}
}

func TestMinCostMaxFlowLPPipelineDiamond(t *testing.T) {
	d := diamond(t)
	res, err := solveCold(d, 0, 3, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 4 || res.Cost != 12 {
		t.Fatalf("LP pipeline: value %d cost %d, want 4 and 12", res.Value, res.Cost)
	}
	if err := CertifyOptimal(d, 0, 3, res.Flows); err != nil {
		t.Fatal(err)
	}
	if res.LPStats.PathSteps == 0 {
		t.Fatal("no LP iterations recorded")
	}
}

func TestMinCostMaxFlowMatchesSSPRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 4; trial++ {
		d := graph.RandomFlowNetwork(6, 0.25, 3, 3, rnd)
		wantV, wantC, _, err := MinCostMaxFlowSSP(d, 0, d.N()-1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := solveCold(d, 0, d.N()-1, Options{Seed: int64(trial + 10)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Value != wantV || res.Cost != wantC {
			t.Fatalf("trial %d: LP (%d, %d) vs SSP (%d, %d)", trial, res.Value, res.Cost, wantV, wantC)
		}
	}
}

func TestBadTerminals(t *testing.T) {
	d := diamond(t)
	if _, _, err := MaxFlow(d, 0, 0); err == nil {
		t.Fatal("s == t accepted")
	}
	if _, _, _, err := MinCostMaxFlowSSP(d, -1, 3); err == nil {
		t.Fatal("negative s accepted")
	}
}
