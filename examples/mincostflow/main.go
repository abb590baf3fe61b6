// Min-cost flow on a layered transport network: the headline application
// (Theorem 1.1), served through the session API. A FlowSolver ingests the
// network once and answers a batch of shipping queries under a deadline;
// every answer is verified arc-by-arc against the combinatorial baseline.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"bcclap"
	"bcclap/internal/graph"
)

func main() {
	// A 3-layer transport network: sources → depots → customers, with
	// random capacities and per-unit shipping costs.
	rnd := rand.New(rand.NewSource(9))
	d := graph.LayeredFlowNetwork(3, 2, 4, 5, rnd)
	s, t := 0, d.N()-1
	fmt.Printf("transport network: %d nodes, %d arcs\n", d.N(), d.M())

	// WithBackend selects the AᵀDA linear-solve strategy: "csr-pcg" is
	// matrix-free CG preconditioned by a maximum-multiplicity spanning
	// forest of the network; "dense" the exact reference.
	// bcclap.FlowBackends() lists every registered name — a typo here
	// fails fast with bcclap.ErrBackendUnknown.
	solver, err := bcclap.NewFlowSolver(d,
		bcclap.WithSeed(3),
		bcclap.WithBackend("csr-pcg"))
	if err != nil {
		log.Fatal(err)
	}
	defer solver.Close()

	// The context bounds the whole batch; a pathological instance aborts
	// with context.DeadlineExceeded instead of hanging.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Three identical shipping queries: the first solves cold, the rest
	// warm-start from its certified solution and skip path following.
	queries := []bcclap.FlowQuery{{S: s, T: t}, {S: s, T: t}, {S: s, T: t}}
	results, err := solver.SolveBatch(ctx, queries)
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range results {
		fmt.Printf("query %d: ship %d units at total cost %d (%d path steps, warm=%v, %v)\n",
			i, res.Value, res.Cost, res.Stats.PathSteps, res.Stats.WarmStarted,
			res.Stats.WallTime.Round(time.Millisecond))
	}

	res := results[0]
	wantV, wantC, _, err := bcclap.MinCostMaxFlowBaseline(d, s, t)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline:  ship %d units at total cost %d\n", wantV, wantC)
	if wantV != res.Value || wantC != res.Cost {
		log.Fatal("pipeline disagrees with the exact baseline")
	}
	fmt.Println("\nshipping plan (pipeline):")
	for i, f := range res.Flows {
		if f > 0 {
			a := d.Arc(i)
			fmt.Printf("  %2d -> %2d : %d units (unit cost %d)\n", a.From, a.To, f, a.Cost)
		}
	}
}
