package bcclap

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bcclap/internal/flow"
	"bcclap/internal/graph"
	"bcclap/internal/linalg"
	"bcclap/internal/sim"
)

func testFlowNetwork(n int, seed int64) *Digraph {
	return graph.RandomFlowNetwork(n, 0.35, 3, 3, rand.New(rand.NewSource(seed)))
}

// solveOnce is a single-use session: build, answer one query, shut down.
func solveOnce(d *Digraph, s, t int, opts ...Option) (*FlowResult, error) {
	fs, err := NewFlowSolver(d, opts...)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	return fs.Solve(context.Background(), s, t)
}

// bareSolver is the non-pooled reference: a flow.Solver built with the
// options NewFlowSolver gives its workers for WithSeed(seed).
func bareSolver(t *testing.T, d *Digraph, seed int64, net *Network) *flow.Solver {
	t.Helper()
	fs, err := flow.NewSolver(d.Clone(), flow.Options{Seed: seed + 11, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// Acceptance: a canceled context aborts a flow solve on every registered
// backend with an error satisfying errors.Is(err, context.Canceled).
func TestFlowSolverCancellationAllBackends(t *testing.T) {
	d := testFlowNetwork(5, 31)
	for _, backend := range FlowBackends() {
		t.Run(backend, func(t *testing.T) {
			// Pre-canceled context: rejected before any attempt.
			fs, err := NewFlowSolver(d, WithBackend(backend))
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := fs.Solve(ctx, 0, d.N()-1); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled: got %v", err)
			}
			// Cancel mid-path-following from the progress stream: the solve
			// must abort within one outer iteration.
			ctx2, cancel2 := context.WithCancel(context.Background())
			defer cancel2()
			fs2, err := NewFlowSolver(d,
				WithBackend(backend),
				WithProgress(func(e Event) {
					if e.Stage == "path-step" && e.Step == 2 {
						cancel2()
					}
				}))
			if err != nil {
				t.Fatal(err)
			}
			defer fs2.Close()
			if _, err := fs2.Solve(ctx2, 0, d.N()-1); !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-solve: got %v", err)
			}
		})
	}
}

// Session solves must reproduce a fresh bare flow.Solver bit for bit,
// call after call: the pool in front of it changes no answer, and a
// repeat Solve runs cold.
func TestFlowSolverMatchesOneShot(t *testing.T) {
	d := testFlowNetwork(5, 32)
	const seed = 6
	fs, err := NewFlowSolver(d, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for i := 0; i < 2; i++ {
		got, err := fs.Solve(context.Background(), 0, d.N()-1)
		if err != nil {
			t.Fatalf("session solve %d: %v", i, err)
		}
		want, err := bareSolver(t, d, seed, nil).Solve(context.Background(), flow.Query{S: 0, T: d.N() - 1}, false)
		if err != nil {
			t.Fatalf("bare solve %d: %v", i, err)
		}
		if got.Value != want.Value || got.Cost != want.Cost ||
			got.Stats.PathSteps != want.LPStats.PathSteps || !reflect.DeepEqual(got.Flows, want.Flows) {
			t.Fatalf("solve %d diverged: session (%d, %d, %d steps) vs bare (%d, %d, %d steps)",
				i, got.Value, got.Cost, got.Stats.PathSteps, want.Value, want.Cost, want.LPStats.PathSteps)
		}
		if i > 0 && !got.Stats.ReusedPreprocessing {
			t.Fatal("repeat query did not reuse preprocessing")
		}
		if i > 0 && (got.Stats.WarmStarted || got.Stats.Attempts < 1) {
			t.Fatalf("repeat Solve did not run cold: WarmStarted %v, Attempts %d", got.Stats.WarmStarted, got.Stats.Attempts)
		}
		if got.Stats.WallTime <= 0 {
			t.Fatal("no wall time recorded")
		}
	}
}

// A batch primed with a terminal pair must warm-start every repeat of it
// on every backend: each answer equals the SSP baseline and a one-shot
// solve's flows, runs no perturbation attempt and no path step, and
// re-centers in fewer centerings than the one-shot's path (12 against
// 382–383 here). This work gap is the whole of session reuse's speed
// on repeat queries.
func TestFlowSolverBatch(t *testing.T) {
	d := graph.RandomFlowNetwork(6, 0.3, 3, 3, rand.New(rand.NewSource(18)))
	s, tt := 0, d.N()-1
	wantV, wantC, _, err := MinCostMaxFlowBaseline(d, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range FlowBackends() {
		t.Run(backend, func(t *testing.T) {
			opts := []Option{WithSeed(7), WithBackend(backend)}
			one, err := solveOnce(d, s, tt, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if one.Value != wantV || one.Cost != wantC {
				t.Fatalf("one-shot: (%d, %d) vs baseline (%d, %d)", one.Value, one.Cost, wantV, wantC)
			}
			fs, err := NewFlowSolver(d, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			if _, err := fs.SolveBatch(context.Background(), []FlowQuery{{s, tt}}); err != nil {
				t.Fatal(err)
			}
			res, err := fs.SolveBatch(context.Background(), slices.Repeat([]FlowQuery{{s, tt}}, 6))
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				if r.Value != wantV || r.Cost != wantC || !reflect.DeepEqual(r.Flows, one.Flows) {
					t.Fatalf("query %d: (%d, %d, %v) vs one-shot (%d, %d, %v)", i, r.Value, r.Cost, r.Flows, one.Value, one.Cost, one.Flows)
				}
				if r.Stats.Backend != backend {
					t.Fatalf("query %d: backend %q", i, r.Stats.Backend)
				}
				if st := r.Stats; !st.WarmStarted || st.Attempts != 0 || st.PathSteps != 0 || st.Centerings >= one.Stats.Centerings {
					t.Fatalf("query %d: warm %v, %d attempts, %d path steps, %d centerings; want a warm start with no attempt or path step and fewer centerings than the one-shot's %d",
						i, st.WarmStarted, st.Attempts, st.PathSteps, st.Centerings, one.Stats.Centerings)
				}
			}
		})
	}
}

// Sentinel errors must surface through the public API with errors.Is.
func TestSentinelErrors(t *testing.T) {
	d := testFlowNetwork(5, 34)
	fs, err := NewFlowSolver(d)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.Solve(context.Background(), 0, 0); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("s == t: got %v", err)
	}
	if _, err := fs.Solve(context.Background(), -1, 2); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("s out of range: got %v", err)
	}
	if _, err := fs.SolveBatch(context.Background(), []FlowQuery{{0, 1}, {9, 99}}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("bad batch query: got %v", err)
	}
	if _, err := NewFlowSolver(NewDigraph(3)); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("empty digraph: got %v", err)
	}
	_, err = NewFlowSolver(d, WithBackend("no-such-backend"))
	if !errors.Is(err, ErrBackendUnknown) {
		t.Fatalf("unknown backend: got %v", err)
	}
	if !strings.Contains(err.Error(), "csr-pcg") {
		t.Fatalf("backend error does not list registered names: %v", err)
	}
	if _, err := NewLaplacianSession(graph.New(4)); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("edgeless graph: got %v", err)
	}
}

// The LP session must amortize across solves, report unified stats, and
// reject infeasible starts with ErrInfeasible.
func TestLPSolverSession(t *testing.T) {
	prob := &LPProblem{
		A: linalg.NewCSR(2, 1, []linalg.Triple{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 1}}),
		B: []float64{1},
		C: []float64{2, 1},
		L: []float64{0, 0},
		U: []float64{1, 1},
	}
	l, err := NewLPSolver(prob, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		sol, st, err := l.Solve(ctx, []float64{0.5, 0.5}, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Objective < 0.95 || sol.Objective > 1.05 {
			t.Fatalf("objective %v, want ≈ 1", sol.Objective)
		}
		if st.PathSteps == 0 || st.WallTime <= 0 || st.Backend != "dense" {
			t.Fatalf("stats: %+v", st)
		}
		if (i > 0) != st.ReusedPreprocessing {
			t.Fatalf("solve %d: ReusedPreprocessing = %v", i, st.ReusedPreprocessing)
		}
	}
	if _, _, err := l.Solve(ctx, []float64{2, -1}, 0.02); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("infeasible x0: got %v", err)
	}
	ctxC, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := l.Solve(ctxC, []float64{0.5, 0.5}, 0.02); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled LP solve: got %v", err)
	}
}

// WithBackend configures the LP session, not the caller's problem.
func TestNewLPSolverLeavesProblemUntouched(t *testing.T) {
	prob := &LPProblem{
		A: linalg.NewCSR(2, 1, []linalg.Triple{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 1}}),
		B: []float64{1},
		C: []float64{2, 1},
		L: []float64{0, 0},
		U: []float64{1, 1},
	}
	l, err := NewLPSolver(prob, WithBackend("csr-pcg"))
	if err != nil {
		t.Fatal(err)
	}
	if prob.Backend != "" {
		t.Fatalf("NewLPSolver wrote prob.Backend = %q", prob.Backend)
	}
	_, st, err := l.Solve(context.Background(), []float64{0.5, 0.5}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if st.Backend != "csr-pcg" {
		t.Fatalf("session backend %q, want csr-pcg", st.Backend)
	}
}

// Stats.Backend names the backend the session ran: "dense" when none is
// named, else prob.Backend, else WithBackend, which wins without writing
// prob. An unknown name from either source fails in NewLPSolver.
func TestNewLPSolverBackendNamesWhatRuns(t *testing.T) {
	newProb := func(backend string) *LPProblem {
		return &LPProblem{
			A:       linalg.NewCSR(2, 1, []linalg.Triple{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 1}}),
			B:       []float64{1},
			C:       []float64{2, 1},
			L:       []float64{0, 0},
			U:       []float64{1, 1},
			Backend: backend,
		}
	}
	ran := func(prob *LPProblem, opts ...Option) string {
		l, err := NewLPSolver(prob, opts...)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := l.Solve(context.Background(), []float64{0.5, 0.5}, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		return st.Backend
	}
	if got := ran(newProb("")); got != "dense" {
		t.Fatalf("no backend named: Stats.Backend %q, want dense", got)
	}
	if got := ran(newProb("csr-pcg")); got != "csr-pcg" {
		t.Fatalf("prob.Backend csr-pcg: Stats.Backend %q", got)
	}
	prob := newProb("csr-pcg")
	if got := ran(prob, WithBackend("dense")); got != "dense" {
		t.Fatalf("WithBackend(dense) over prob.Backend csr-pcg: Stats.Backend %q", got)
	}
	if prob.Backend != "csr-pcg" {
		t.Fatalf("NewLPSolver wrote prob.Backend = %q", prob.Backend)
	}
	for _, c := range []struct {
		prob *LPProblem
		opts []Option
	}{
		{newProb(""), []Option{WithBackend("no-such-backend")}},
		{newProb("no-such-backend"), nil},
		{newProb("csr-cg"), nil},  // retired
		{newProb("gremban"), nil}, // retired
		{newProb(""), []Option{WithBackend("csr-cg")}},
	} {
		if _, err := NewLPSolver(c.prob, c.opts...); !errors.Is(err, ErrBackendUnknown) {
			t.Fatalf("unknown backend (prob.Backend %q): got %v, want ErrBackendUnknown", c.prob.Backend, err)
		}
	}
}

// The Laplacian session must honor contexts and keep serving after a
// cancellation, and two sessions with one seed must agree bit for bit.
func TestLaplacianSessionCtx(t *testing.T) {
	g := graph.Grid(4, 5)
	sess, err := NewLaplacianSession(g, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewLaplacianSession(g, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(2))
	b := make([]float64, g.N())
	for i := range b {
		b[i] = rnd.NormFloat64()
	}
	b = linalg.ProjectOutOnes(b)
	ctxC, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sess.SolveCtx(ctxC, b, 1e-6); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Laplacian solve: got %v", err)
	}
	y, st, err := sess.SolveCtx(context.Background(), b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if st.CGIterations == 0 || !st.ReusedPreprocessing || st.WallTime <= 0 {
		t.Fatalf("stats: %+v", st)
	}
	yTwin, _, err := twin.SolveCtx(context.Background(), b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(y, yTwin) {
		t.Fatal("two sessions with one seed disagree")
	}
}

// WithProgress must deliver both attempt and path-step events.
func TestProgressEvents(t *testing.T) {
	d := testFlowNetwork(5, 35)
	var attempts, steps int
	fs, err := NewFlowSolver(d, WithProgress(func(e Event) {
		switch e.Stage {
		case "attempt":
			attempts++
		case "path-step":
			steps++
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.Solve(context.Background(), 0, d.N()-1); err != nil {
		t.Fatal(err)
	}
	if attempts == 0 || steps == 0 {
		t.Fatalf("progress stream empty: attempts=%d steps=%d", attempts, steps)
	}
}

// A FlowSolver must answer batches bit-identically to a bare flow.Solver
// at every pool size, with the same work (attempts, path steps,
// centerings, CG iterations), so pooling adds no solver work; accept
// concurrent callers; and shut down with the ErrSolverClosed sentinel.
func TestFlowSolverPooled(t *testing.T) {
	d := testFlowNetwork(5, 36)
	s, tt := 0, d.N()-1
	queries := []FlowQuery{{s, tt}, {s, tt}, {s, tt}, {s, tt}}
	bare := bareSolver(t, d, 6, nil)
	want := make([]*flow.Result, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = bare.Solve(context.Background(), flow.Query{S: q.S, T: q.T}, true); err != nil {
			t.Fatal(err)
		}
	}
	sameAsBare := func(t *testing.T, got []*FlowResult) {
		t.Helper()
		for i := range queries {
			if got[i].Value != want[i].Value || got[i].Cost != want[i].Cost ||
				!reflect.DeepEqual(got[i].Flows, want[i].Flows) ||
				got[i].Stats.WarmStarted != want[i].WarmStarted ||
				got[i].Stats.Attempts != want[i].Attempts ||
				got[i].Stats.PathSteps != want[i].LPStats.PathSteps ||
				got[i].Stats.Centerings != want[i].LPStats.Centerings ||
				got[i].Stats.CGIterations != want[i].LPStats.CGIterations {
				t.Fatalf("query %d: pooled %+v vs bare %+v", i, got[i], want[i])
			}
		}
	}

	// Size 1, the default: one worker, still the full shutdown contract.
	t.Run("size-1", func(t *testing.T) {
		fs, err := NewFlowSolver(d, WithSeed(6))
		if err != nil {
			t.Fatal(err)
		}
		if n := fs.PoolSize(); n != 1 {
			t.Fatalf("default pool size %d, want 1", n)
		}
		if fs.Closed() {
			t.Fatal("fresh solver reports Closed")
		}
		got, err := fs.SolveBatch(context.Background(), queries)
		if err != nil {
			t.Fatal(err)
		}
		sameAsBare(t, got)
		fs.Close()
		if !fs.Closed() {
			t.Fatal("Closed() false after Close")
		}
		if _, err := fs.Solve(context.Background(), s, tt); !errors.Is(err, ErrSolverClosed) {
			t.Fatalf("Solve after Close: got %v, want ErrSolverClosed", err)
		}
		if _, err := fs.SolveBatch(context.Background(), []FlowQuery{{s, tt}}); !errors.Is(err, ErrSolverClosed) {
			t.Fatalf("SolveBatch after Close: got %v, want ErrSolverClosed", err)
		}
		if err := fs.PatchArcs([]ArcDelta{{Arc: 0, CapDelta: 1}}); !errors.Is(err, ErrSolverClosed) {
			t.Fatalf("PatchArcs after Close: got %v, want ErrSolverClosed", err)
		}
		fs.Close() // idempotent
	})

	pooled, err := NewFlowSolver(d, WithSeed(6), WithPoolSize(3))
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()
	if n := pooled.PoolSize(); n != 3 {
		t.Fatalf("pool size %d, want exactly 3", n)
	}
	got, err := pooled.SolveBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	sameAsBare(t, got)
	st := pooled.PoolStats()
	if st.Completed != int64(len(queries)) || st.WarmStarted == 0 {
		t.Fatalf("pool stats: %+v", st)
	}

	// Concurrent single-query callers: every result must match the
	// reference answer (queries are cold, so any order is the same order).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pooled.Solve(context.Background(), s, tt)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Value != want[0].Value || res.Cost != want[0].Cost {
				t.Errorf("concurrent solve: (%d, %d) vs (%d, %d)",
					res.Value, res.Cost, want[0].Value, want[0].Cost)
			}
		}()
	}
	wg.Wait()

	if err := pooled.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := pooled.Solve(context.Background(), s, tt); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("post-drain solve: got %v, want ErrSolverClosed", err)
	}
}

// One worker is one stream, so a size-1 FlowSolver accepts the round
// simulator and accounts exactly like a bare flow.Solver; more workers
// reject it. Close leaves no goroutine behind.
func TestFlowSolverSizeOneContract(t *testing.T) {
	d := testFlowNetwork(5, 37)
	s, tt := 0, d.N()-1
	newNet := func() *Network {
		net, err := NewBCCNetwork(d.N())
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	bareNet, sizeOneNet := newNet(), newNet()
	want, err := bareSolver(t, d, 8, bareNet).Solve(context.Background(), flow.Query{S: s, T: tt}, false)
	if err != nil {
		t.Fatal(err)
	}
	if want.Rounds == 0 {
		t.Fatal("bare solver charged no rounds")
	}

	goroutines := runtime.NumGoroutine()
	fs, err := NewFlowSolver(d, WithSeed(8), WithNetwork(sizeOneNet))
	if err != nil {
		t.Fatalf("size-1 solver rejected WithNetwork: %v", err)
	}
	got, err := fs.Solve(context.Background(), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Rounds != want.Rounds || got.Value != want.Value || got.Cost != want.Cost ||
		!reflect.DeepEqual(got.Flows, want.Flows) {
		t.Fatalf("size-1 (%d rounds, %d, %d) vs bare (%d rounds, %d, %d)",
			got.Stats.Rounds, got.Value, got.Cost, want.Rounds, want.Value, want.Cost)
	}
	// The exact charge of the IPM's centerings (two all-vertex broadcast
	// phases each, plus the mixed-ball projection's), the same through the
	// bare solver and the session: 316 centerings at 701 rounds, 275
	// messages and 42,060 bits each. Phase 2 stops at its first certified
	// rounding (304 path steps); the certificates themselves are local.
	wantStats := sim.Stats{Rounds: 221516, Messages: 86900, Bits: 13290960}
	if got := bareNet.Stats(); got != wantStats {
		t.Fatalf("bare solver network stats = %+v, want %+v", got, wantStats)
	}
	if got := sizeOneNet.Stats(); got != wantStats {
		t.Fatalf("size-1 solver network stats = %+v, want %+v", got, wantStats)
	}
	fs.Close()
	// Close returns once the worker has called Done; an exiting goroutine
	// is counted until it is gone, so retry briefly as leak checkers do.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after Close, %d before the solver", n, goroutines)
	}

	if fs, err := NewFlowSolver(d, WithPoolSize(2), WithNetwork(newNet())); err == nil {
		fs.Close()
		t.Fatalf("WithNetwork accepted on a %d-worker solver", fs.PoolSize())
	}
}
