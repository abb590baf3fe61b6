package flow

import (
	"fmt"
	"math/rand"
	"testing"

	"bcclap/internal/graph"
	"bcclap/internal/lp"
)

// differentialCase is one seeded instance of the certificate guard.
type differentialCase struct {
	n       int
	p       float64
	arcs    int // exact arc count to draw for, 0 for any
	seed    int64
	backend string // forced backend, "" for the default
	slow    bool   // tens of seconds per solve: run without -race only
}

// name keeps the "auto-" label that unnamed-backend cases carried when
// the default depended on the graph, so case names stay comparable
// across changes.
func (c differentialCase) name() string {
	b := c.backend
	if b == "" {
		b = "auto-" + lp.DefaultBackend
	}
	if c.arcs > 0 {
		b = fmt.Sprintf("m%d_%s", c.arcs, b)
	}
	return fmt.Sprintf("n%d_p%g_seed%d_%s", c.n, c.p, c.seed, b)
}

// digraph draws the instance: RandomFlowNetwork(n, p, 3, 3) from generator
// seed seed×31, redrawn from the same stream until it has exactly arcs
// arcs when arcs > 0.
func (c differentialCase) digraph() *graph.Digraph {
	rnd := rand.New(rand.NewSource(c.seed * 31))
	for {
		d := graph.RandomFlowNetwork(c.n, c.p, 3, 3, rnd)
		if c.arcs == 0 || d.M() == c.arcs {
			return d
		}
	}
}

// TestCertificateDifferentialSSP is the seeded guard on the certified
// pipeline: every instance must certify against the successive-shortest-
// paths oracle within the retry budget, on the default dense backend, on
// the small csr-pcg shape the benchmark forces, on csr-pcg forced onto a
// sparse n=32 network, and on csr-pcg forced onto denser graphs
// (n ≥ 16), whose iterates drift off Aᵀx = b late in phase 2: those
// certify only because each attempt stops at its first certified
// rounding. Attempts per
// instance are logged, so a change that needs more perturbations to
// certify shows up before it shows up as failures.
//
// The slow cases (forced csr-pcg at n=24, 1–3 s each on a 2-vCPU host)
// run in every build without the race detector, CI's own "certificate
// differential" step included. Under -race they take 9–30 s each, about
// a minute together, and a solve runs on one goroutine, so the detector
// has nothing to find in them.
func TestCertificateDifferentialSSP(t *testing.T) {
	var cases []differentialCase
	for _, n := range []int{5, 8, 12} {
		for seed := int64(1); seed <= 3; seed++ {
			cases = append(cases, differentialCase{n: n, p: 0.3, seed: seed})
		}
	}
	cases = append(cases,
		differentialCase{n: 32, p: 0.07, seed: 1, backend: "csr-pcg"},
		differentialCase{n: 5, p: 0.3, arcs: 9, seed: 1, backend: "csr-pcg"},
		differentialCase{n: 16, p: 0.3, seed: 3, backend: "csr-pcg"},
		differentialCase{n: 24, p: 0.3, seed: 1, backend: "csr-pcg", slow: true},
		differentialCase{n: 24, p: 0.3, seed: 2, backend: "csr-pcg", slow: true},
		differentialCase{n: 24, p: 0.3, seed: 3, backend: "csr-pcg", slow: true},
	)
	total := 0
	for _, c := range cases {
		t.Run(c.name(), func(t *testing.T) {
			if c.slow && raceEnabled {
				t.Skip("too slow under -race; the certificate differential CI step runs it without")
			}
			d := c.digraph()
			s, tt := 0, d.N()-1
			wantV, wantC, _, err := MinCostMaxFlowSSP(d, s, tt)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := NewSolver(d, Options{Backend: c.backend, Seed: 2022})
			if err != nil {
				t.Fatal(err)
			}
			res, err := fs.Solve(t.Context(), Query{S: s, T: tt}, false)
			if err != nil {
				t.Fatalf("m=%d: %v", d.M(), err)
			}
			if res.Value != wantV || res.Cost != wantC {
				t.Fatalf("m=%d: LP (%d, %d) vs SSP (%d, %d)", d.M(), res.Value, res.Cost, wantV, wantC)
			}
			t.Logf("m=%d certified in %d attempt(s), %d path steps", d.M(), res.Attempts, res.LPStats.PathSteps)
			total += res.Attempts
		})
	}
	t.Logf("%d attempts in total", total)
}
