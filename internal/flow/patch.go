package flow

import (
	"fmt"
	"math"

	"bcclap/internal/graph"
)

// ApplyArcDeltas applies an all-or-nothing set of capacity/cost deltas to
// the session's digraph and rebinds every cached per-pair LP form to the
// new numbers. Topology is immutable (deltas never add or remove arcs), so
// the CSR constraint structure each form carries stays valid; what changes
// are the box bounds (capacities) and the cost vector, and lp.Session
// bakes the former into its barriers at construction — hence the rebuild
// rather than an in-place bound mutation.
//
// The previous certified iterate of each pair is carried into the new form
// (clamped back into the shrunken box when a capacity decreased) and
// flagged costs-stale: the next warm query re-perturbs the new costs
// and polishes from the carried basis — a handful of centerings at t₂
// instead of full path following — falling back to a cold solve whenever
// the exactness certificate rejects the shortcut. Cold queries are
// untouched: they behave exactly as on a fresh solver over the patched
// digraph.
//
// Like Solve, ApplyArcDeltas must not run concurrently with a solve; the
// pool layer serializes it onto each worker's queue. Errors wrap
// graph.ErrBadDelta and leave the solver unchanged.
func (fs *Solver) ApplyArcDeltas(deltas []graph.ArcDelta) error {
	if len(deltas) == 0 {
		return fmt.Errorf("%w: empty delta set", graph.ErrBadDelta)
	}
	if err := fs.d.ApplyDeltas(deltas); err != nil {
		return err
	}
	for q, st := range fs.forms {
		ns, err := fs.rebindForm(q, st)
		if err != nil {
			// Unreachable for pure cap/cost deltas (the formulation depends
			// only on topology), but never serve a stale form: drop it and
			// let the next query rebuild lazily.
			delete(fs.forms, q)
			continue
		}
		fs.forms[q] = ns
	}
	return nil
}

// rebindForm rebuilds one pair's LP form and session over the patched
// digraph, carrying the warm-start state across.
func (fs *Solver) rebindForm(q Query, old *formState) (*formState, error) {
	st, err := fs.newFormState(q)
	if err != nil {
		return nil, err
	}
	st.used = old.used
	if old.warmX != nil {
		st.warmX = clampInterior(old.warmX, st.form.Prob.L, st.form.Prob.U)
		st.warmW = old.warmW
		st.costsStale = true
	}
	return st, nil
}

// clampInterior pulls x strictly inside the box [l, u] coordinate-wise —
// a capacity decrease can leave the previous optimum outside the new
// bounds, and Polish requires a strictly interior start. The relative
// margin errs on the safe side; the warm blend toward X0 and the
// feasibility repair inside Polish absorb the perturbation.
func clampInterior(x, l, u []float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		lo, hi, v := l[i], u[i], x[i]
		switch {
		case !math.IsInf(lo, -1) && !math.IsInf(hi, 1):
			m := 1e-3 * (hi - lo)
			if v < lo+m {
				v = lo + m
			}
			if v > hi-m {
				v = hi - m
			}
		case !math.IsInf(lo, -1) && v < lo+1e-9:
			v = lo + 1e-9
		case !math.IsInf(hi, 1) && v > hi-1e-9:
			v = hi - 1e-9
		}
		out[i] = v
	}
	return out
}
