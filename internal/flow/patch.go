package flow

import (
	"fmt"
	"math"

	"bcclap/internal/graph"
)

// ApplyArcDeltas applies an all-or-nothing set of capacity/cost deltas to
// the session's digraph and rewrites every cached per-pair LP form for
// the new numbers in place. Topology is immutable (deltas never add or
// remove arcs), so each form's constraint matrix, and the lp.Session
// with the backend bound to it, stay valid; what changes are the box
// bounds and starting point (capacities, and M = max(cap, |cost|)),
// which writeBounds rewrites and the session reads at its next solve,
// and the costs, which the next solve re-perturbs.
//
// The previous certified iterate of each pair is kept (clamped back into
// the shrunken box when a capacity decreased) and flagged costs-stale:
// the next warm query re-perturbs the new costs and polishes from the
// kept basis — a handful of centerings at t₂ instead of full path
// following — falling back to a cold solve whenever the exactness
// certificate rejects the shortcut. Cold queries behave exactly as on a
// fresh solver over the patched digraph.
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
	for _, st := range fs.forms {
		st.form.writeBounds()
		if st.warmX != nil {
			st.warmX = clampInterior(st.warmX, st.form.Prob.L, st.form.Prob.U)
			st.costsStale = true
		}
	}
	return nil
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
