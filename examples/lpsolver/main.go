// Direct use of the Theorem 1.4 LP solver on a small resource-allocation
// program: distribute one unit of budget per project across three bids of
// different costs, min total cost.
package main

import (
	"context"
	"fmt"
	"log"

	"bcclap"
	"bcclap/internal/linalg"
)

func main() {
	// Four projects; each must allocate exactly 1 across its three bids
	// (cost 1, 2, 3 per unit). The optimum funds the cheapest bid of every
	// project: objective 4.
	const projects = 4
	m := 3 * projects
	var ts []linalg.Triple
	c := make([]float64, m)
	for p := 0; p < projects; p++ {
		for j := 0; j < 3; j++ {
			row := 3*p + j
			ts = append(ts, linalg.Triple{Row: row, Col: p, Val: 1})
			c[row] = float64(j + 1)
		}
	}
	prob := &bcclap.LPProblem{
		A: linalg.NewCSR(m, projects, ts),
		B: linalg.Ones(projects),
		C: c,
		L: make([]float64, m),
		U: linalg.Ones(m),
	}
	x0 := linalg.Constant(m, 1.0/3) // uniform split: strictly feasible

	solver, err := bcclap.NewLPSolver(prob)
	if err != nil {
		log.Fatal(err)
	}
	sol, stats, err := solver.Solve(context.Background(), x0, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("objective %.3f (OPT = %d) after %d path steps / %d centerings (%d CG iterations)\n",
		sol.Objective, projects, stats.PathSteps, stats.Centerings, stats.CGIterations)
	for p := 0; p < projects; p++ {
		fmt.Printf("project %d allocation: %.3f %.3f %.3f\n",
			p, sol.X[3*p], sol.X[3*p+1], sol.X[3*p+2])
	}
}
