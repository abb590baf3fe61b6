package flow

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bcclap/internal/graph"
	"bcclap/internal/linalg"
	"bcclap/internal/lp"
)

// workCountsGolden pins the interior-point work of small solves. It was
// generated before the solver's tuning values (step size, final
// centerings, Lewis iterations, target ε, attempt budget) became
// constants, so a drift in any of them changes a line here even where the
// certified answer stays the same.
const workCountsGolden = "workcounts.golden"

// workCounts solves RandomFlowNetwork(n, 0.35, 3, 3) from generator seed
// seed×31 for (0, n−1) on each backend and perturbation seeds 1 and 2,
// as two warm queries of the pair: a cold solve, then the warm-started
// repeat. One line per solve. It also returns the CG iterations of each
// first (cold) solve, keyed by backend and then by instance ("n=6").
func workCounts(t *testing.T, backends ...string) (string, map[string]map[string]int) {
	var b strings.Builder
	coldCG := map[string]map[string]int{}
	for _, backend := range backends {
		coldCG[backend] = map[string]int{}
		for _, inst := range []struct {
			n    int
			seed int64
		}{{6, 1}, {8, 2}} {
			d := graph.RandomFlowNetwork(inst.n, 0.35, 3, 3, rand.New(rand.NewSource(inst.seed*31)))
			fs, err := NewSolver(d, Options{Backend: backend, Seed: inst.seed})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				r, err := fs.Solve(context.Background(), Query{S: 0, T: d.N() - 1}, true)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d #%d: %v", backend, inst.n, inst.seed, i, err)
				}
				if i == 0 {
					coldCG[backend][fmt.Sprintf("n=%d", inst.n)] = r.LPStats.CGIterations
				}
				kind := "cold"
				if r.WarmStarted {
					kind = "warm"
				}
				fmt.Fprintf(&b, "%s n=%d m=%d seed=%d #%d %s value=%d cost=%d attempts=%d steps=%d centerings=%d cg=%d flows=%v\n",
					backend, d.N(), d.M(), inst.seed, i, kind, r.Value, r.Cost, r.Attempts,
					r.LPStats.PathSteps, r.LPStats.Centerings, r.LPStats.CGIterations, r.Flows)
			}
		}
	}
	return b.String(), coldCG
}

// edgelessForest names csr-pcg's own fallback for the preconditioner
// check: the same CG, operator and diagonal guard, with the edgeless
// forest csr-pcg uses on non-incidence matrices, so its preconditioner is
// diag(AᵀDA). It is registered by the tests that need it, never by lp.
const edgelessForest = "edgeless-forest"

var registerEdgelessForest = sync.OnceFunc(func() {
	lp.RegisterBackend(edgelessForest, func(a *linalg.CSR) (lp.ATDASolve, error) {
		tree, err := linalg.NewTreeCholPrecond(a.Cols(), nil)
		if err != nil {
			return nil, err
		}
		ws := linalg.NewWorkspace()
		diag := make([]float64, a.Cols())
		x := make([]float64, a.Cols())
		var dcur []float64
		op := linalg.FuncOp(func(dst, x []float64) { a.GramMulVecTo(dst, dcur, x) })
		return func(ctx context.Context, d, y []float64) ([]float64, int, error) {
			dcur = d
			a.GramDiagTo(diag, d)
			for i, v := range diag {
				if v <= 0 {
					diag[i] = 1
				}
			}
			tree.Refresh(diag, nil)
			iters, err := linalg.InexactCGTo(ctx, x, op, y, tree.ApplyTo, ws)
			if err != nil {
				return nil, iters, err
			}
			return linalg.Clone(x), iters, nil
		}, nil
	})
})

// TestWorkCountsGolden fails when the answer or the work of any pinned
// solve moves. A change that alters the solver's work on purpose updates
// testdata/workcounts.golden with the new lines and says why. Whatever
// the golden says, csr-pcg's cold solve of each instance must take fewer
// CG iterations than the same solve on its edgeless forest: a regenerated
// golden cannot silently lose the preconditioner. Besides the pinned
// instances, whose margins are a few percent, the check counts the sparse
// RandomFlowNetwork(8, 0.1, 3, 3) from generator seed 8 with perturbation
// seed 18, where the forest cuts the count about threefold; it adds no
// golden line.
func TestWorkCountsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", workCountsGolden))
	if err != nil {
		t.Fatal(err)
	}
	got, coldCG := workCounts(t, "dense", "csr-pcg")
	registerEdgelessForest()
	_, plainCG := workCounts(t, edgelessForest)
	maps.Copy(coldCG, plainCG)
	sparse := graph.RandomFlowNetwork(8, 0.1, 3, 3, rand.New(rand.NewSource(8)))
	for _, backend := range []string{edgelessForest, "csr-pcg"} {
		fs, err := NewSolver(sparse, Options{Backend: backend, Seed: 18})
		if err != nil {
			t.Fatal(err)
		}
		r, err := fs.Solve(context.Background(), Query{S: 0, T: sparse.N() - 1}, false)
		if err != nil {
			t.Fatalf("%s sparse n=8: %v", backend, err)
		}
		coldCG[backend]["sparse n=8"] = r.LPStats.CGIterations
	}
	for inst, plain := range coldCG[edgelessForest] {
		pcg := coldCG["csr-pcg"][inst]
		t.Logf("%s: csr-pcg's cold solve took %d CG iterations, on the edgeless forest %d", inst, pcg, plain)
		if pcg >= plain {
			t.Errorf("%s: csr-pcg's cold solve took %d CG iterations, on the edgeless forest %d; want fewer", inst, pcg, plain)
		}
	}
	if got != string(want) {
		t.Fatalf("work counts moved from testdata/%s.\ngot:\n%swant:\n%s", workCountsGolden, got, want)
	}
}
