package bcclap

import (
	"errors"

	"bcclap/internal/admission"
	"bcclap/internal/flow"
	"bcclap/internal/graph"
	"bcclap/internal/lapsolver"
	"bcclap/internal/lp"
	"bcclap/internal/pool"
)

// Sentinel errors of the session API. Every error returned by a session
// wraps one of these when the named condition applies, so callers branch
// with errors.Is regardless of which internal layer raised it (the
// variables alias the internal sentinels — an error produced four layers
// down still matches).
var (
	// ErrBadQuery marks a malformed flow query: terminals out of range,
	// s == t, or an empty digraph. Raised at the API boundary, before any
	// LP formulation work starts.
	ErrBadQuery = flow.ErrBadQuery

	// ErrBackendUnknown marks a backend name that does not resolve in the
	// registry; the error text lists FlowBackends(). Raised by the session
	// constructors, never mid-solve.
	ErrBackendUnknown = lp.ErrBackendUnknown

	// ErrDisconnected marks a disconnected input graph, for which a single
	// Laplacian solve is ill-posed.
	ErrDisconnected = lapsolver.ErrDisconnected

	// ErrInfeasible marks a starting point that is not strictly feasible
	// for the LP (outside the box interior or violating Aᵀx = b).
	ErrInfeasible = lp.ErrInfeasible

	// ErrNotCertified marks a flow query none of whose perturbation
	// attempts passed the exactness certificate (the error also wraps the
	// last attempt's). The REST layer maps it to 500.
	ErrNotCertified = flow.ErrNotCertified

	// ErrSolverClosed marks a query submitted to a FlowSolver after Drain
	// or Close began, a queued query abandoned by an aborting shutdown, or
	// an operation on a Service or NetworkHandle whose shutdown has begun.
	ErrSolverClosed = pool.ErrClosed

	// ErrNetworkUnknown marks a Service operation naming a network that is
	// not (or no longer) registered.
	ErrNetworkUnknown = errors.New("bcclap: unknown network")

	// ErrNetworkExists marks a Service.Register under a name that is
	// already taken; use Get + Swap to replace a live network.
	ErrNetworkExists = errors.New("bcclap: network already registered")

	// ErrBadPatch marks a malformed arc-delta set passed to PatchArcs: an
	// empty set, an arc index outside the network, or a capacity delta
	// that would drive an arc's capacity non-positive. Raised before any
	// state (durable or in-memory) changes.
	ErrBadPatch = graph.ErrBadDelta

	// ErrNetworkBusy marks a Swap or PatchArcs attempted while another
	// mutation of the same tenant is still in progress. Mutations are
	// serialized per tenant; retry once the in-flight one finishes (the
	// REST layer maps this to 429 with a Retry-After hint).
	ErrNetworkBusy = errors.New("bcclap: network mutation in progress")

	// ErrBadSpec marks a malformed network specification: an unparseable
	// request body or an arc list the digraph constructor rejects. Raised
	// by the REST layer's PUT/PATCH decoding, before any solver work.
	ErrBadSpec = errors.New("bcclap: malformed network spec")

	// ErrOverloaded marks a query rejected by a network's admission gate:
	// the bounded admission queue was full, or the request's deadline
	// would have expired before a slot or rate token freed up. The REST
	// layer maps it to 429 with a computed Retry-After. A rejection that
	// noticed the deadline while queued also matches
	// context.DeadlineExceeded.
	ErrOverloaded = admission.ErrOverloaded

	// ErrBadLimits marks invalid QoS limits: a negative rate, burst,
	// in-flight cap, or a non-finite rate. Raised by Register/Swap option
	// validation and NetworkHandle.SetLimits, before anything is
	// journaled.
	ErrBadLimits = admission.ErrBadLimits
)
