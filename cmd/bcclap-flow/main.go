// Command bcclap-flow solves a minimum-cost maximum-flow instance with the
// paper's BCC pipeline and cross-checks it against the combinatorial
// baseline.
//
// Input (stdin, whitespace separated):
//
//	n m s t
//	from to capacity cost     (m lines)
//
// With -random N it instead generates a random instance on N vertices.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"bcclap"
	"bcclap/internal/graph"
)

func main() {
	randomN := flag.Int("random", 0, "generate a random instance on N vertices instead of reading stdin")
	seed := flag.Int64("seed", 1, "random seed")
	backend := flag.String("backend", "", "AᵀDA solve backend: "+strings.Join(bcclap.FlowBackends(), ", ")+" (default: dense)")
	timeout := flag.Duration("timeout", 0, "abort the solve after this duration (e.g. 30s; 0 = no limit)")
	flag.Parse()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, *randomN, *seed, *backend); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "bcclap-flow: solve exceeded -timeout %v: %v\n", *timeout, err)
		} else {
			fmt.Fprintln(os.Stderr, "bcclap-flow:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, randomN int, seed int64, backend string) error {
	var d *graph.Digraph
	var s, t int
	if randomN > 0 {
		rnd := rand.New(rand.NewSource(seed))
		d = graph.RandomFlowNetwork(randomN, 0.3, 3, 3, rnd)
		s, t = 0, randomN-1
		fmt.Printf("random instance: n=%d m=%d s=%d t=%d\n", d.N(), d.M(), s, t)
	} else {
		var err error
		d, s, t, err = readInstance(os.Stdin)
		if err != nil {
			return err
		}
	}
	solver, err := bcclap.NewFlowSolver(d, bcclap.WithSeed(seed), bcclap.WithBackend(backend))
	if err != nil {
		return err
	}
	defer solver.Close()
	start := time.Now()
	res, err := solver.Solve(ctx, s, t)
	if err != nil {
		return fmt.Errorf("solve failed after %v: %w", time.Since(start).Round(time.Millisecond), err)
	}
	fmt.Printf("max flow value: %d\n", res.Value)
	fmt.Printf("min cost:       %d\n", res.Cost)
	fmt.Printf("attempts:       %d\n", res.Stats.Attempts)
	fmt.Printf("LP path steps:  %d\n", res.Stats.PathSteps)
	fmt.Printf("wall time:      %v\n", res.Stats.WallTime.Round(time.Millisecond))
	wantV, wantC, _, err := bcclap.MinCostMaxFlowBaseline(d, s, t)
	if err != nil {
		return err
	}
	fmt.Printf("baseline (SSP): value=%d cost=%d — %s\n", wantV, wantC,
		map[bool]string{true: "MATCH", false: "MISMATCH"}[wantV == res.Value && wantC == res.Cost])
	for i, f := range res.Flows {
		if f > 0 {
			a := d.Arc(i)
			fmt.Printf("  arc %d->%d: flow %d / cap %d (cost %d)\n", a.From, a.To, f, a.Cap, a.Cost)
		}
	}
	return nil
}

func readInstance(f *os.File) (*graph.Digraph, int, int, error) {
	r := bufio.NewReader(f)
	var n, m, s, t int
	if _, err := fmt.Fscan(r, &n, &m, &s, &t); err != nil {
		return nil, 0, 0, fmt.Errorf("read header: %w", err)
	}
	d, err := graph.ReadArcList(r, n, m)
	if err != nil {
		return nil, 0, 0, err
	}
	return d, s, t, nil
}
