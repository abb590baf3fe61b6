package flow

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"bcclap/internal/graph"
	"bcclap/internal/lp"
)

// Every registered AᵀDA backend must produce the identical certified
// (value, cost) on random digraphs — the certificate is combinatorial and
// exact, so agreement means each backend solved the LP to rounding
// precision.
func TestBackendsProduceIdenticalCertifiedFlows(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	backends := lp.Backends()
	if !slices.Contains(backends, "dense") || !slices.Contains(backends, "csr-pcg") {
		t.Fatalf("registered backends %v, want dense and csr-pcg among them", backends)
	}
	for trial := 0; trial < 2; trial++ {
		d := graph.RandomFlowNetwork(6+trial, 0.3, 3, 3, rnd)
		wantV, wantC, _, err := MinCostMaxFlowSSP(d, 0, d.N()-1)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range backends {
			res, err := solveCold(d, 0, d.N()-1, Options{
				Backend: backend,
				Seed:    int64(100*trial + 7),
			})
			if err != nil {
				t.Fatalf("trial %d backend %s: %v", trial, backend, err)
			}
			if res.Value != wantV || res.Cost != wantC {
				t.Fatalf("trial %d backend %s: (value, cost) = (%d, %d), SSP baseline (%d, %d)",
					trial, backend, res.Value, res.Cost, wantV, wantC)
			}
			if err := CertifyOptimal(d, 0, d.N()-1, res.Flows); err != nil {
				t.Fatalf("trial %d backend %s: certificate: %v", trial, backend, err)
			}
		}
	}
}

// pathDigraph is an s→t chain; gridDigraph a rows×cols mesh with rightward
// and downward arcs — the structured families the csr-pcg preconditioner
// extracts its forest from.
func pathDigraph(n int, rnd *rand.Rand) *graph.Digraph {
	d := graph.NewDigraph(n)
	for v := 0; v+1 < n; v++ {
		if _, err := d.AddArc(v, v+1, 1+rnd.Int63n(3), rnd.Int63n(4)); err != nil {
			panic(err)
		}
	}
	return d
}

func gridDigraph(rows, cols int, rnd *rand.Rand) *graph.Digraph {
	d := graph.NewDigraph(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	add := func(u, v int) {
		if _, err := d.AddArc(u, v, 1+rnd.Int63n(3), rnd.Int63n(4)); err != nil {
			panic(err)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				add(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				add(id(r, c), id(r+1, c))
			}
		}
	}
	return d
}

// csr-pcg must produce the same certified flows as the dense reference on
// the path, grid and random families, and its session must build the
// combinatorial preconditioner exactly once while refreshing it across
// every IPM step and query (the cross-step, cross-query reuse the backend
// exists for).
func TestCSRPCGCertifiedFlowsAndReuse(t *testing.T) {
	rnd := rand.New(rand.NewSource(43))
	cases := map[string]*graph.Digraph{
		"path":   pathDigraph(7, rnd),
		"grid":   gridDigraph(2, 3, rnd),
		"random": graph.RandomFlowNetwork(6, 0.3, 3, 3, rnd),
	}
	for name, d := range cases {
		s, tt := 0, d.N()-1
		wantV, wantC, _, err := MinCostMaxFlowSSP(d, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := NewSolver(d, Options{Backend: "csr-pcg"})
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 2; q++ {
			res, err := fs.Solve(t.Context(), Query{S: s, T: tt}, false)
			if err != nil {
				t.Fatalf("%s query %d: %v", name, q, err)
			}
			if res.Value != wantV || res.Cost != wantC {
				t.Fatalf("%s query %d: (%d, %d) vs baseline (%d, %d)", name, q, res.Value, res.Cost, wantV, wantC)
			}
			if res.LPStats.PrecondBuilds != 1 {
				t.Fatalf("%s query %d: PrecondBuilds = %d, want 1 (symbolic structure reused across queries)",
					name, q, res.LPStats.PrecondBuilds)
			}
			// Refreshes are per query: every query reweights D.
			if res.LPStats.PrecondRefreshes <= 0 {
				t.Fatalf("%s query %d: PrecondRefreshes = %d, want > 0 refreshes in this query",
					name, q, res.LPStats.PrecondRefreshes)
			}
		}
	}
}

// With no backend named, every solver runs the dense default, whatever
// the graph's size or density; a named backend always wins.
func TestDefaultBackendIsDense(t *testing.T) {
	rnd := rand.New(rand.NewSource(44))
	graphs := map[string]*graph.Digraph{
		"sparse n=64":        pathDigraph(64, rnd),
		"tiny":               pathDigraph(6, rnd),
		"near-complete n=40": graph.RandomFlowNetwork(40, 0.9, 3, 3, rnd),
	}
	for name, d := range graphs {
		for _, backend := range []string{"", "dense", "csr-pcg"} {
			fs, err := NewSolver(d, Options{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			want := cmp.Or(backend, "dense")
			if fs.backend != want {
				t.Fatalf("%s, backend %q: solver runs %q, want %q", name, backend, fs.backend, want)
			}
		}
	}
}

func TestConfigureRejectsUnknownBackend(t *testing.T) {
	if _, err := solveCold(diamond(t), 0, 3, Options{Backend: "no-such-backend"}); !errors.Is(err, lp.ErrBackendUnknown) {
		t.Fatalf("unknown backend: solve returned %v, want lp.ErrBackendUnknown", err)
	}
}
