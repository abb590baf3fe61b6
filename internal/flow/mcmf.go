package flow

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"bcclap/internal/graph"
	"bcclap/internal/lp"
	"bcclap/internal/sim"
)

// ErrNotCertified wraps the last attempt's error when no perturbation
// attempt of a solve produced a flow passing CertifyOptimal.
var ErrNotCertified = errors.New("flow: no certified flow")

const (
	lpEps       = 0.25 // LP target accuracy: t₂ high enough for exact rounding
	maxAttempts = 5    // perturbation attempts; each certifies w.p. ≥ 1/2 (footnote 7)
)

// Options configures the LP-based min-cost max-flow pipeline.
type Options struct {
	// Backend names the (AᵀDA) strategy from the lp backend registry
	// ("dense", "csr-pcg", …); empty selects lp.DefaultBackend
	// ("dense") on every network. Unknown names fail fast with
	// lp.ErrBackendUnknown when the solver is constructed.
	Backend string
	// Seed seeds the perturbation stream each query draws afresh.
	Seed int64
	// Net, if non-nil, receives round accounting.
	Net *sim.Network
	// Progress, if non-nil, is invoked at the start of every perturbation
	// attempt. Observability only.
	Progress func(attempt int)
	// PathProgress, if non-nil, is invoked after every interior-point path
	// step (lp.Params.Progress). Observability only.
	PathProgress func(phase, step int, t float64)
}

// DefaultBackendFor returns the backend a solver runs when the caller
// names none: lp.DefaultBackend, whatever the digraph. Only the bench
// driver still calls it.
func DefaultBackendFor(*graph.Digraph) string { return lp.DefaultBackend }

// Result is the output of a min-cost max-flow solve.
type Result struct {
	// Value is the maximum flow value, Cost its minimum cost.
	Value, Cost int64
	// Flows is the exact integral per-arc flow.
	Flows []int64
	// Attempts is the number of fresh perturbations tried (0 for a
	// successful warm start, which reuses the previous certified
	// perturbation).
	Attempts int
	// LPStats carries the interior-point statistics of the successful
	// attempt (path steps, centerings, inner CG iterations).
	LPStats lp.Solution
	// Rounds is the simulator round count consumed by this solve (0
	// without a network).
	Rounds int
	// WallTime is the measured duration of this solve.
	WallTime time.Duration
	// ReusedForm reports that the LP formulation, CSR structure and
	// backend workspaces were reused from an earlier query on the same
	// terminals (session amortization).
	ReusedForm bool
	// WarmStarted reports that the solve skipped path following entirely,
	// re-centering the previous certified solution at t₂ (a warm Solve).
	WarmStarted bool
}

// Query is a terminal pair for Solver.Solve.
type Query struct {
	S, T int
}

// formState is the per-terminal-pair cache of a Solver: the LP structure,
// the lp session bound to it (backend + scratch), and the last certified
// solution for warm starts.
type formState struct {
	form *LPForm
	sess *lp.Session
	used bool
	// warmX/warmW are the LP iterate and Lewis weights of the last
	// certified solve, valid for the perturbation currently written in
	// form (Perturb invalidates them implicitly: the cold path never reads
	// them, and the warm path is only taken when no re-perturbation
	// happened since they were stored).
	warmX, warmW []float64
	// costsStale marks a form patched by ApplyArcDeltas: warmX was
	// certified against the pre-patch costs, so the warm path must redraw
	// the perturbation over the new costs before polishing (any fresh
	// perturbation clears it).
	costsStale bool
}

// Solver is a reusable min-cost max-flow session over one digraph
// (Theorem 1.1 as a service): construction validates the options, and each
// queried terminal pair lazily builds — then caches — the Section 5 LP
// formulation, its CSR constraint matrix and the linear-solve backend
// workspaces, so repeated queries skip everything that is
// query-independent. A Solver is not safe for concurrent use.
type Solver struct {
	d       *graph.Digraph
	opts    Options
	backend string
	forms   map[Query]*formState
}

// NewSolver builds a session over d. It fails fast — before any query —
// on an empty digraph (ErrBadQuery) or an unknown backend name
// (lp.ErrBackendUnknown, listing the registered backends).
func NewSolver(d *graph.Digraph, opts Options) (*Solver, error) {
	if err := checkNonEmpty(d); err != nil {
		return nil, err
	}
	backend, err := lp.ResolveBackend(opts.Backend)
	if err != nil {
		return nil, err
	}
	return &Solver{d: d, opts: opts, backend: backend, forms: map[Query]*formState{}}, nil
}

// formFor returns the cached per-terminal state, building the pair's LP
// form and IPM session on first use; both live as long as the Solver.
func (fs *Solver) formFor(q Query) (*formState, error) {
	if st, ok := fs.forms[q]; ok {
		return st, nil
	}
	form, err := NewLPFormStructure(fs.d, q.S, q.T)
	if err != nil {
		return nil, err
	}
	form.Prob.Backend = fs.backend
	sess, err := lp.NewSession(form.Prob)
	if err != nil {
		return nil, err
	}
	st := &formState{form: form, sess: sess}
	fs.forms[q] = st
	return st, nil
}

// queryRand returns the perturbation stream for one query.
func (fs *Solver) queryRand() *rand.Rand {
	return rand.New(rand.NewSource(fs.opts.Seed))
}

// lpParams prepares the interior-point parameters of one LP solve.
func (fs *Solver) lpParams() lp.Params {
	return lp.Params{Net: fs.opts.Net, Progress: fs.opts.PathProgress}
}

// Validate checks one terminal pair against the session's digraph without
// doing any solve work, reporting the same ErrBadQuery conditions Solve
// would. Unlike Solve it only reads the immutable digraph, so it is safe
// to call concurrently with a solve running on this session (the pool
// layer uses it to pre-validate batches).
func (fs *Solver) Validate(q Query) error { return checkST(fs.d, q.S, q.T) }

// Solve answers one query (ErrBadQuery on malformed terminals): perturb
// costs for uniqueness, solve the Section 5 LP with the Lee–Sidford
// interior-point method, round to integers and certify; on a failed
// certificate, retry with fresh perturbation randomness, up to 5 attempts
// (then failing with ErrNotCertified). Each attempt rounds and certifies
// after every phase-2 path step (lp.Params.Stop) and ends its LP at the
// first rounding that certifies, so it never runs past the full path to
// t₂. These per-step certificates, like the final one, are local checks
// and charge nothing to Options.Net. A cold answer is bit-identical to a
// fresh Solver's. With warm set, a repeat of a pair already certified here
// first re-centers the previous solution at t₂ instead of re-running path
// following, and runs cold only if the certificate rejects that shortcut.
// ctx cancellation aborts within one path-following iteration with an
// error satisfying errors.Is(err, ctx.Err()).
func (fs *Solver) Solve(ctx context.Context, q Query, warm bool) (*Result, error) {
	if err := checkST(fs.d, q.S, q.T); err != nil {
		return nil, err
	}
	start := time.Now()
	st, err := fs.formFor(q)
	if err != nil {
		return nil, err
	}
	startRounds := fs.opts.Net.Rounds()
	reused := st.used
	st.used = true

	if warm && st.warmX != nil {
		// The LP — including its perturbed costs — is unchanged since the
		// last certified solve of this query: a handful of centerings at t₂
		// from the previous optimum replaces the whole Õ(√n)-step path
		// following. The previous optimum hugs the box boundary, so blend a
		// small step toward the cold interior point first (a shifted warm
		// start) — the margin it regains must dominate the feasibility
		// repair Polish applies, and the rounding margin (1/6 of a flow
		// unit) absorbs the shift. The certificate below keeps this exact.
		const warmBlend = 0.05
		if st.costsStale {
			// The arcs were patched since this basis was certified: redraw
			// the uniqueness perturbation over the new costs first. The
			// stream matches a cold attempt's first draw, so a certificate
			// failure below falls back to the exact cold solve a fresh
			// session would run.
			st.form.Perturb(fs.queryRand())
			st.costsStale = false
		}
		x := make([]float64, len(st.warmX))
		for i := range x {
			x[i] = (1-warmBlend)*st.warmX[i] + warmBlend*st.form.X0[i]
		}
		sol, err := st.sess.Polish(ctx, x, st.warmW, lpEps, fs.lpParams())
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("flow: warm solve: %w", err)
			}
		} else {
			flows := st.form.RoundFlow(sol.X)
			if CertifyOptimal(fs.d, q.S, q.T, flows) == nil {
				st.warmX, st.warmW = sol.X, sol.Weights
				return fs.newResult(q, flows, 0, sol, startRounds, start, reused, true), nil
			}
		}
		// Certificate (or polish) rejected the shortcut; run cold.
	}

	rnd := fs.queryRand()
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("flow: canceled before attempt %d: %w", attempt, err)
		}
		if fs.opts.Progress != nil {
			fs.opts.Progress(attempt)
		}
		st.form.Perturb(rnd)
		st.costsStale = false         // fresh costs: no patch redraw pending
		st.warmX, st.warmW = nil, nil // costs changed; prior optimum is stale
		par := fs.lpParams()
		// Certify early: phase 2 ends at the first path step whose rounding
		// certifies. The check after the solve repeats it on the returned
		// iterate, so exactness still rests on that certificate alone.
		par.Stop = func(x []float64) bool {
			return CertifyOptimal(fs.d, q.S, q.T, st.form.RoundFlow(x)) == nil
		}
		sol, err := st.sess.Solve(ctx, st.form.X0, lpEps, par)
		if err != nil {
			lastErr = fmt.Errorf("flow: LP attempt %d: %w", attempt, err)
			if ctx.Err() != nil {
				return nil, lastErr
			}
			continue
		}
		flows := st.form.RoundFlow(sol.X)
		if err := CertifyOptimal(fs.d, q.S, q.T, flows); err != nil {
			lastErr = fmt.Errorf("flow: attempt %d certificate: %w", attempt, err)
			continue
		}
		st.warmX, st.warmW = sol.X, sol.Weights
		return fs.newResult(q, flows, attempt, sol, startRounds, start, reused, false), nil
	}
	return nil, fmt.Errorf("%w: all %d attempts failed: %w", ErrNotCertified, maxAttempts, lastErr)
}

func (fs *Solver) newResult(q Query, flows []int64, attempts int, sol *lp.Solution, startRounds int, start time.Time, reused, warm bool) *Result {
	res := &Result{
		Value:       FlowValue(fs.d, q.S, flows),
		Cost:        FlowCost(fs.d, flows),
		Flows:       flows,
		Attempts:    attempts,
		LPStats:     *sol,
		WallTime:    time.Since(start),
		ReusedForm:  reused,
		WarmStarted: warm,
	}
	res.Rounds = fs.opts.Net.Rounds() - startRounds
	return res
}
