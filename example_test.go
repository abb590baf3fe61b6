package bcclap_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"bcclap"
)

// exampleNetwork builds a small fixed transport network: two routes from 0
// to 3 with different costs plus a cross arc.
func exampleNetwork() *bcclap.Digraph {
	d := bcclap.NewDigraph(4)
	for _, a := range []struct {
		from, to  int
		cap, cost int64
	}{
		{0, 1, 2, 1},
		{0, 2, 2, 2},
		{1, 3, 2, 1},
		{2, 3, 1, 1},
		{1, 2, 1, 1},
	} {
		if _, err := d.AddArc(a.from, a.to, a.cap, a.cost); err != nil {
			log.Fatal(err)
		}
	}
	return d
}

// A FlowSolver is constructed once per digraph and serves many queries;
// every answer is certified exact before being returned.
func ExampleNewFlowSolver() {
	d := exampleNetwork()
	solver, err := bcclap.NewFlowSolver(d, bcclap.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	defer solver.Close() // each solver owns a worker goroutine
	res, err := solver.Solve(context.Background(), 0, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("value=%d cost=%d\n", res.Value, res.Cost)
	// Output:
	// value=3 cost=7
}

// Batch queries amortize the LP formulation; repeated terminal pairs
// warm-start from the previous certified solution and skip path following
// (PathSteps = 0) while staying certified exact.
func ExampleFlowSolver_SolveBatch() {
	d := exampleNetwork()
	solver, err := bcclap.NewFlowSolver(d, bcclap.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	defer solver.Close()
	queries := []bcclap.FlowQuery{{S: 0, T: 3}, {S: 0, T: 3}, {S: 0, T: 3}}
	results, err := solver.SolveBatch(context.Background(), queries)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("query %d: value=%d cost=%d warm=%v\n", i, r.Value, r.Cost, r.Stats.WarmStarted)
	}
	// Output:
	// query 0: value=3 cost=7 warm=false
	// query 1: value=3 cost=7 warm=true
	// query 2: value=3 cost=7 warm=true
}

// Every session accepts a context: cancellation aborts within one outer
// iteration with an error satisfying errors.Is(err, context.Canceled),
// and malformed queries fail fast with the sentinel taxonomy.
func ExampleFlowSolver_Solve_cancellation() {
	d := exampleNetwork()
	solver, err := bcclap.NewFlowSolver(d)
	if err != nil {
		log.Fatal(err)
	}
	defer solver.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // deadline/cancellation propagates through all four layers
	_, err = solver.Solve(ctx, 0, 3)
	fmt.Println("canceled:", errors.Is(err, context.Canceled))

	_, err = solver.Solve(context.Background(), 0, 0)
	fmt.Println("bad query:", errors.Is(err, bcclap.ErrBadQuery))

	_, err = bcclap.NewFlowSolver(d, bcclap.WithBackend("no-such-backend"))
	fmt.Println("unknown backend:", errors.Is(err, bcclap.ErrBackendUnknown))
	// Output:
	// canceled: true
	// bad query: true
	// unknown backend: true
}

// A Service is the multi-tenant top of the API: one process managing many
// named, versioned networks, each behind a solver pool and a
// certified-result cache. Results are exact and deterministic, so cached
// answers are bit-identical to fresh ones; Swap atomically replaces a
// tenant's network, bumping its version and invalidating exactly that
// tenant's cache.
func ExampleService() {
	svc := bcclap.NewService(bcclap.WithSeed(7), bcclap.WithCacheSize(64))
	h, err := svc.Register("prod", exampleNetwork())
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	fresh, err := h.Solve(ctx, 0, 3)
	if err != nil {
		log.Fatal(err)
	}
	cached, err := h.Solve(ctx, 0, 3) // O(1): served from the cache
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("v%d fresh:  value=%d cost=%d cached=%v\n", h.Version(), fresh.Value, fresh.Cost, fresh.Stats.CacheHit)
	fmt.Printf("v%d repeat: value=%d cost=%d cached=%v\n", h.Version(), cached.Value, cached.Cost, cached.Stats.CacheHit)

	// Swapping the network bumps the version and invalidates the cache.
	if err := h.Swap(exampleNetwork()); err != nil {
		log.Fatal(err)
	}
	after, err := h.Solve(ctx, 0, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("v%d swap:   value=%d cost=%d cached=%v\n", h.Version(), after.Value, after.Cost, after.Stats.CacheHit)

	if err := svc.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	// Output:
	// v1 fresh:  value=3 cost=7 cached=false
	// v1 repeat: value=3 cost=7 cached=true
	// v2 swap:   value=3 cost=7 cached=false
}
