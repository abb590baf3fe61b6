package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bcclap"
	"bcclap/internal/flow"
	"bcclap/internal/graph"
	"bcclap/internal/linalg"
	"bcclap/internal/lp"
)

// corruptBackend names a backend that negates every dense AᵀDA solve. The
// projection then pushes the interior-point iterates off Aᵀx = b, and
// every perturbation attempt's rounded flow fails the certificate. It is
// registered only in this test binary, whose tests never list the
// registry.
const corruptBackend = "test-corrupt"

func init() {
	lp.RegisterBackend(corruptBackend, func(a *linalg.CSR) (lp.ATDASolve, error) {
		solve, _, err := lp.NewBackendSolverStats("dense", a)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, d, y []float64) ([]float64, int, error) {
			x, iters, err := solve(ctx, d, y)
			for i := range x {
				x[i] = -x[i]
			}
			return x, iters, err
		}, nil
	})
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
	if _, err := fs.Solve(ctx, s, tt); !errors.Is(err, flow.ErrNotCertified) {
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
