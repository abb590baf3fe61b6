package flow

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bcclap/internal/graph"
)

// patchDeltas is a small deterministic delta set for a RandomFlowNetwork:
// widen one backbone arc and reprice another.
func patchDeltas(d *graph.Digraph) []graph.ArcDelta {
	return []graph.ArcDelta{
		{Arc: 0, CapDelta: 2, CostDelta: 1},
		{Arc: d.M() - 1, CostDelta: 2},
	}
}

// Malformed delta sets must fail with ErrBadDelta before any state
// changes, and a later solve must behave as if the call never happened.
func TestApplyArcDeltasValidation(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	d := graph.RandomFlowNetwork(6, 0.35, 3, 3, rnd)
	fs, err := NewSolver(d, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before, err := fs.Solve(ctx, Query{S: 0, T: d.N() - 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range [][]graph.ArcDelta{
		nil,
		{},
		{{Arc: d.M()}},
		{{Arc: 0, CapDelta: -100}},
	} {
		if err := fs.ApplyArcDeltas(ds); !errors.Is(err, graph.ErrBadDelta) {
			t.Fatalf("deltas %v: err = %v, want ErrBadDelta", ds, err)
		}
	}
	after, err := fs.Solve(ctx, Query{S: 0, T: d.N() - 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if before.Value != after.Value || before.Cost != after.Cost {
		t.Fatal("failed ApplyArcDeltas mutated the solver")
	}
}

// After a patch, solves must be exact on the patched network: value and
// cost must match the SSP baseline run against an independently patched
// digraph, and the flow must certify.
func TestPatchedSolveMatchesBaseline(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rnd := rand.New(rand.NewSource(40 + seed))
		d := graph.RandomFlowNetwork(7, 0.35, 3, 3, rnd)
		fs, err := NewSolver(d, Options{Seed: 5 + seed})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		s, tt := 0, d.N()-1
		// Solve once pre-patch so the pair holds warm-start state.
		if _, err := fs.Solve(ctx, Query{S: s, T: tt}, false); err != nil {
			t.Fatalf("seed %d pre-patch: %v", seed, err)
		}
		// Build the expected patched graph from a clone first: the solver
		// shares (and mutates) d itself at this layer.
		ds := patchDeltas(d)
		patched := d.Clone()
		if err := patched.ApplyDeltas(ds); err != nil {
			t.Fatal(err)
		}
		if err := fs.ApplyArcDeltas(ds); err != nil {
			t.Fatalf("seed %d patch: %v", seed, err)
		}
		res, err := fs.Solve(ctx, Query{S: s, T: tt}, true)
		if err != nil {
			t.Fatalf("seed %d post-patch: %v", seed, err)
		}
		wantValue, wantCost, _, err := MinCostMaxFlowSSP(patched, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != wantValue || res.Cost != wantCost {
			t.Fatalf("seed %d: post-patch (value %d cost %d), baseline (value %d cost %d)",
				seed, res.Value, res.Cost, wantValue, wantCost)
		}
		if err := CertifyOptimal(patched, s, tt, res.Flows); err != nil {
			t.Fatalf("seed %d: post-patch flow fails certification: %v", seed, err)
		}
	}
}

// A patch rewrites each cached pair's LP bounds in place: the pair keeps
// its form and lp.Session (csr-pcg builds its preconditioner once), and a
// cold re-solve answers bit for bit like a fresh solver built on the
// patched digraph. The raises move M = max(cap, |cost|), so every y, z
// and F bound and the start point change too.
func TestPatchedColdSolveEquivalence(t *testing.T) {
	base := graph.RandomFlowNetwork(6, 0.4, 3, 3, rand.New(rand.NewSource(11)))
	q := Query{S: 0, T: base.N() - 1}
	ctx := context.Background()
	patches := []struct {
		name    string
		raisesM bool
		deltas  func(d *graph.Digraph, flows []int64) []graph.ArcDelta
	}{
		{"mixed", false, func(d *graph.Digraph, _ []int64) []graph.ArcDelta { return patchDeltas(d) }},
		{"saturated-cap-down", false, func(d *graph.Digraph, flows []int64) []graph.ArcDelta {
			for i, f := range flows {
				if c := d.Arc(i).Cap; f == c && c > 1 {
					return []graph.ArcDelta{{Arc: i, CapDelta: -1}}
				}
			}
			t.Fatal("no saturated arc with capacity above 1")
			return nil
		}},
		{"cap-past-max", true, func(d *graph.Digraph, _ []int64) []graph.ArcDelta {
			return []graph.ArcDelta{{Arc: 0, CapDelta: formBigM(d) + 1 - d.Arc(0).Cap}}
		}},
		{"cost-past-max", true, func(d *graph.Digraph, _ []int64) []graph.ArcDelta {
			last := d.M() - 1
			return []graph.ArcDelta{{Arc: last, CostDelta: formBigM(d) + 1 - d.Arc(last).Cost}}
		}},
	}
	for _, backend := range []string{"dense", "csr-pcg"} {
		for _, p := range patches {
			t.Run(backend+"/"+p.name, func(t *testing.T) {
				d := base.Clone() // the solver shares (and mutates) d at this layer
				opts := Options{Backend: backend, Seed: 21}
				fs, err := NewSolver(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				pre, err := fs.Solve(ctx, q, false)
				if err != nil {
					t.Fatal(err)
				}
				st := fs.forms[q]
				sess := st.sess
				ds := p.deltas(d, pre.Flows)
				patched := d.Clone()
				if err := patched.ApplyDeltas(ds); err != nil {
					t.Fatal(err)
				}
				if p.raisesM && formBigM(patched) <= formBigM(d) {
					t.Fatalf("patch %v leaves M at %d", ds, formBigM(d))
				}
				if err := fs.ApplyArcDeltas(ds); err != nil {
					t.Fatal(err)
				}
				if fs.forms[q] != st || st.sess != sess {
					t.Fatal("the patch replaced the pair's form or lp.Session")
				}
				got, err := fs.Solve(ctx, q, false)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := NewSolver(patched, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Solve(ctx, q, false)
				if err != nil {
					t.Fatal(err)
				}
				g, w := got.LPStats, want.LPStats
				if got.Value != want.Value || got.Cost != want.Cost || !slices.Equal(got.Flows, want.Flows) ||
					g.PathSteps != w.PathSteps || g.Centerings != w.Centerings || g.CGIterations != w.CGIterations ||
					math.Float64bits(g.Objective) != math.Float64bits(w.Objective) {
					t.Fatalf("patched session: value %d cost %d, %d steps, %d centerings, %d CG, objective %v; "+
						"fresh solver: value %d cost %d, %d steps, %d centerings, %d CG, objective %v (or flows differ)",
						got.Value, got.Cost, g.PathSteps, g.Centerings, g.CGIterations, g.Objective,
						want.Value, want.Cost, w.PathSteps, w.Centerings, w.CGIterations, w.Objective)
				}
				if backend == "csr-pcg" && g.PrecondBuilds != 1 {
					t.Fatalf("csr-pcg: %d preconditioner builds after the patch, want 1 (the pre-patch one)", g.PrecondBuilds)
				}
			})
		}
	}
}

// A cold solve after a patch re-perturbs the costs and stores a freshly
// certified iterate, so it must clear the patch's costs-stale flag: a warm
// query after it must not redraw the first perturbation over an iterate
// certified under a later one.
func TestColdSolveClearsCostsStale(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		d := graph.RandomFlowNetwork(6, 0.35, 3, 3, rand.New(rand.NewSource(seed)))
		fs, err := NewSolver(d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		q := Query{S: 0, T: d.N() - 1}
		if _, err := fs.Solve(ctx, q, false); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := fs.ApplyArcDeltas(patchDeltas(d)); err != nil {
			t.Fatal(err)
		}
		if !fs.forms[q].costsStale {
			t.Fatalf("seed %d: patch did not flag the certified pair costs-stale", seed)
		}
		if _, err := fs.Solve(ctx, q, false); err != nil {
			t.Fatalf("seed %d post-patch: %v", seed, err)
		}
		if fs.forms[q].costsStale {
			t.Fatalf("seed %d: cold solve left costsStale set", seed)
		}
	}
}
