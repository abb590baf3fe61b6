package flow

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"bcclap/internal/graph"
	"bcclap/internal/lp"
)

// solveCold answers one cold query on a fresh Solver over d.
func solveCold(d *graph.Digraph, s, t int, opts Options) (*Result, error) {
	fs, err := NewSolver(d, opts)
	if err != nil {
		return nil, err
	}
	return fs.Solve(context.Background(), Query{S: s, T: t}, false)
}

// Malformed queries must surface ErrBadQuery at the API boundary, not a
// panic or an LP-level failure.
func TestBadQueryValidation(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	d := graph.RandomFlowNetwork(5, 0.4, 3, 3, rnd)
	cases := []struct{ s, t int }{
		{-1, 2}, {0, d.N()}, {d.N() + 3, 0}, {2, 2},
	}
	for _, c := range cases {
		if _, err := solveCold(d, c.s, c.t, Options{}); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("s=%d t=%d: got %v, want ErrBadQuery", c.s, c.t, err)
		}
	}
	empty := graph.NewDigraph(4) // vertices but no arcs
	if _, err := solveCold(empty, 0, 1, Options{}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("empty digraph: got %v, want ErrBadQuery", err)
	}
	if _, err := NewSolver(graph.NewDigraph(0), Options{}); !errors.Is(err, ErrBadQuery) {
		t.Fatal("zero-vertex digraph accepted by NewSolver")
	}
	fs, err := NewSolver(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Solve(context.Background(), Query{S: 3, T: 3}, true); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("warm bad query: got %v, want ErrBadQuery", err)
	}
}

// An unknown backend must fail at construction with lp.ErrBackendUnknown,
// before any solve starts.
func TestSolverUnknownBackendFailsFast(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	d := graph.RandomFlowNetwork(5, 0.4, 3, 3, rnd)
	_, err := NewSolver(d, Options{Backend: "no-such-backend"})
	if !errors.Is(err, lp.ErrBackendUnknown) {
		t.Fatalf("got %v, want lp.ErrBackendUnknown", err)
	}
}

// N sequential cold Solve calls on one Solver must produce bit-identical
// results to N solves on fresh Solvers with the same options.
func TestSolverSessionDeterminism(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	d := graph.RandomFlowNetwork(5, 0.35, 3, 3, rnd)
	opts := Options{Seed: 77}
	fs, err := NewSolver(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 3
	for i := 0; i < n; i++ {
		got, err := fs.Solve(ctx, Query{S: 0, T: d.N() - 1}, false)
		if err != nil {
			t.Fatalf("session solve %d: %v", i, err)
		}
		want, err := solveCold(d, 0, d.N()-1, opts)
		if err != nil {
			t.Fatalf("fresh solve %d: %v", i, err)
		}
		if got.Value != want.Value || got.Cost != want.Cost ||
			got.Attempts != want.Attempts ||
			got.LPStats.PathSteps != want.LPStats.PathSteps ||
			got.LPStats.Centerings != want.LPStats.Centerings ||
			got.LPStats.CGIterations != want.LPStats.CGIterations ||
			!reflect.DeepEqual(got.Flows, want.Flows) {
			t.Fatalf("solve %d diverged from a fresh solver:\nsession %+v\nfresh   %+v", i, got, want)
		}
		if !reflect.DeepEqual(got.LPStats.X, want.LPStats.X) {
			t.Fatalf("solve %d: LP iterates differ", i)
		}
		if i > 0 && !got.ReusedForm {
			t.Fatalf("solve %d did not reuse the cached formulation", i)
		}
	}
}

// Warm repeats must keep every answer certified-exact against the SSP
// baseline while skipping path following.
func TestWarmSolveRepeats(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	d := graph.RandomFlowNetwork(6, 0.35, 3, 3, rnd)
	s, tt := 0, d.N()-1
	wantV, wantC, _, err := MinCostMaxFlowSSP(d, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewSolver(d, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, 4)
	for i := range results {
		if results[i], err = fs.Solve(context.Background(), Query{S: s, T: tt}, true); err != nil {
			t.Fatal(err)
		}
	}
	warm := 0
	for i, res := range results {
		if res.Value != wantV || res.Cost != wantC {
			t.Fatalf("query %d: (%d, %d) vs SSP (%d, %d)", i, res.Value, res.Cost, wantV, wantC)
		}
		if err := CertifyOptimal(d, s, tt, res.Flows); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res.WarmStarted {
			warm++
			if res.LPStats.PathSteps != 0 {
				t.Fatalf("query %d warm-started but took %d path steps", i, res.LPStats.PathSteps)
			}
		}
	}
	if warm == 0 {
		t.Fatal("no query warm-started")
	}
	if results[0].WarmStarted {
		t.Fatal("first query cannot warm-start")
	}
}

// A canceled context must abort the retry loop and the path following on
// every registered backend with an error satisfying errors.Is.
func TestSolverCancellationAllBackends(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	d := graph.RandomFlowNetwork(5, 0.35, 3, 3, rnd)
	for _, backend := range lp.Backends() {
		// Pre-canceled: aborts before the first attempt.
		fs, err := NewSolver(d, Options{Backend: backend})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := fs.Solve(ctx, Query{S: 0, T: d.N() - 1}, false); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s pre-canceled: got %v", backend, err)
		}
		// Mid-solve: cancel after a few path steps via the progress hook.
		ctx2, cancel2 := context.WithCancel(context.Background())
		fs2, err := NewSolver(d, Options{
			Backend: backend,
			PathProgress: func(phase, step int, tpar float64) {
				if step == 3 {
					cancel2()
				}
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if _, err := fs2.Solve(ctx2, Query{S: 0, T: d.N() - 1}, false); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s mid-solve: got %v", backend, err)
		}
		cancel2()
	}
}

// Arcless digraphs stay valid inputs for the combinatorial baselines (max
// flow trivially zero); only the LP pipeline rejects them as ErrBadQuery.
func TestBaselinesAcceptArclessDigraph(t *testing.T) {
	empty := graph.NewDigraph(3)
	v, c, flows, err := MinCostMaxFlowSSP(empty, 0, 2)
	if err != nil || v != 0 || c != 0 || len(flows) != 0 {
		t.Fatalf("SSP on arcless digraph: v=%d c=%d flows=%v err=%v", v, c, flows, err)
	}
	if vMax, _, err := MaxFlow(empty, 0, 2); err != nil || vMax != 0 {
		t.Fatalf("Dinic on arcless digraph: v=%d err=%v", vMax, err)
	}
}
