package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"bcclap"
	"bcclap/internal/flow"
	"bcclap/internal/graph"
	"bcclap/internal/linalg"
	"bcclap/internal/lp"
)

// corruptBackend names a backend that negates every dense AᵀDA solve. The
// projection then pushes the interior-point iterates off Aᵀx = b, and
// every perturbation attempt's rounded flow fails the certificate.
// flakyBackend negates them only while flaky is set, so a test can fail
// exactly the attempts it chooses. Both are registered only in this test
// binary, whose tests never list the registry.
const (
	corruptBackend = "test-corrupt"
	flakyBackend   = "test-flaky"
)

var flaky atomic.Bool

func init() {
	negating := func(on func() bool) lp.BackendFactory {
		return func(a *linalg.CSR) (lp.ATDASolve, error) {
			solve, _, err := lp.NewBackendSolverStats("dense", a)
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context, d, y []float64) ([]float64, int, error) {
				x, iters, err := solve(ctx, d, y)
				if on() {
					for i := range x {
						x[i] = -x[i]
					}
				}
				return x, iters, err
			}, nil
		}
	}
	lp.RegisterBackend(corruptBackend, negating(func() bool { return true }))
	lp.RegisterBackend(flakyBackend, negating(flaky.Load))
}

// Retry exhaustion surfaces as ErrNotCertified through every layer: the
// flow session, the public FlowSolver, a Service handle and the daemon,
// which answers 500 naming it.
func TestRetryExhaustionNotCertified(t *testing.T) {
	d := graph.RandomFlowNetwork(5, 0.35, 3, 3, rand.New(rand.NewSource(3)))
	s, tt := 0, d.N()-1
	ctx := context.Background()

	fs, err := flow.NewSolver(d, flow.Options{Backend: corruptBackend})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Solve(ctx, flow.Query{S: s, T: tt}, false); !errors.Is(err, flow.ErrNotCertified) {
		t.Fatalf("flow.Solver: got %v, want ErrNotCertified", err)
	}

	solver, err := bcclap.NewFlowSolver(d, bcclap.WithBackend(corruptBackend))
	if err != nil {
		t.Fatal(err)
	}
	defer solver.Close()
	if _, err := solver.Solve(ctx, s, tt); !errors.Is(err, bcclap.ErrNotCertified) {
		t.Fatalf("FlowSolver: got %v, want ErrNotCertified", err)
	}

	svc := bcclap.NewService()
	defer svc.Close()
	h, err := svc.Register("corrupt", d, bcclap.WithBackend(corruptBackend))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Solve(ctx, s, tt); !errors.Is(err, bcclap.ErrNotCertified) {
		t.Fatalf("NetworkHandle: got %v, want ErrNotCertified", err)
	}

	ts := httptest.NewServer(newServer(svc, 0, 0, 1).routes())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/networks/corrupt/flow", "application/json", strings.NewReader(`{"s": 0, "t": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(er.Error, bcclap.ErrNotCertified.Error()) {
		t.Fatalf("daemon: status %d, error %q; want 500 naming %q", resp.StatusCode, er.Error, bcclap.ErrNotCertified)
	}
}

// sameAsSSP fails the test unless a certified answer matches the SSP
// baseline's value and cost and took the wanted number of attempts.
func sameAsSSP(t *testing.T, layer string, d *graph.Digraph, value, cost int64, attempts, wantAttempts int) {
	t.Helper()
	wantV, wantC, _, err := flow.MinCostMaxFlowSSP(d, 0, d.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	if value != wantV || cost != wantC || attempts != wantAttempts {
		t.Fatalf("%s: (value %d, cost %d, %d attempts), want (%d, %d, %d attempts)",
			layer, value, cost, attempts, wantV, wantC, wantAttempts)
	}
}

// A certificate rejection on the first attempt alone is retried under a
// fresh perturbation, and the second attempt's certified answer is exact,
// through the flow session, the public FlowSolver and a Service handle.
func TestSingleCertificateRejection(t *testing.T) {
	d := graph.RandomFlowNetwork(5, 0.35, 3, 3, rand.New(rand.NewSource(3)))
	q := flow.Query{S: 0, T: d.N() - 1}
	ctx := context.Background()
	defer flaky.Store(false)

	fs, err := flow.NewSolver(d, flow.Options{
		Backend:  flakyBackend,
		Progress: func(attempt int) { flaky.Store(attempt == 1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fs.Solve(ctx, q, false)
	if err != nil {
		t.Fatalf("flow.Solver: %v", err)
	}
	sameAsSSP(t, "flow.Solver", d, res.Value, res.Cost, res.Attempts, 2)

	failFirst := bcclap.WithProgress(func(e bcclap.Event) {
		if e.Stage == "attempt" {
			flaky.Store(e.Attempt == 1)
		}
	})
	solver, err := bcclap.NewFlowSolver(d, bcclap.WithBackend(flakyBackend), failFirst)
	if err != nil {
		t.Fatal(err)
	}
	defer solver.Close()
	got, err := solver.Solve(ctx, q.S, q.T)
	if err != nil {
		t.Fatalf("FlowSolver: %v", err)
	}
	sameAsSSP(t, "FlowSolver", d, got.Value, got.Cost, got.Stats.Attempts, 2)

	svc := bcclap.NewService()
	defer svc.Close()
	h, err := svc.Register("flaky", d, bcclap.WithBackend(flakyBackend), failFirst)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = h.Solve(ctx, q.S, q.T); err != nil {
		t.Fatalf("NetworkHandle: %v", err)
	}
	sameAsSSP(t, "NetworkHandle", d, got.Value, got.Cost, got.Stats.Attempts, 2)
}

// A repeat query whose warm start the certificate rejects falls back to
// the cold loop and still answers exactly: the flag corrupts only the
// warm polish and is cleared when the first cold attempt begins.
func TestWarmFallbackToCold(t *testing.T) {
	d := graph.RandomFlowNetwork(5, 0.35, 3, 3, rand.New(rand.NewSource(3)))
	s, tt := 0, d.N()-1
	ctx := context.Background()
	defer flaky.Store(false)

	svc := bcclap.NewService()
	defer svc.Close()
	h, err := svc.Register("fallback", d, bcclap.WithBackend(flakyBackend), bcclap.WithCacheSize(0),
		bcclap.WithProgress(func(e bcclap.Event) {
			if e.Stage == "attempt" {
				flaky.Store(false)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	first, err := h.Solve(ctx, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	sameAsSSP(t, "first query", d, first.Value, first.Cost, first.Stats.Attempts, 1)
	flaky.Store(true)
	got, err := h.Solve(ctx, s, tt)
	if err != nil {
		t.Fatalf("repeat query: %v", err)
	}
	if got.Stats.WarmStarted {
		t.Fatal("repeat query kept a warm start the corrupted polish produced")
	}
	sameAsSSP(t, "repeat query", d, got.Value, got.Cost, got.Stats.Attempts, 1)
}
