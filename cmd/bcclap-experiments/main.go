// Command bcclap-experiments regenerates every experiment table recorded
// in EXPERIMENTS.md: for each theorem/lemma of the paper it sweeps the
// relevant parameter, measures the bounded quantity (size, stretch,
// rounds, iterations, approximation band), and prints it next to the
// paper's bound so the scaling shape can be inspected directly; for the
// backend registry (e15) it solves one certified flow per AᵀDA backend
// and prints each answer and wall clock. The experiments are defined in
// internal/experiments; this command selects and renders them.
//
// Usage:
//
//	bcclap-experiments            # run everything
//	bcclap-experiments -exp e3    # one experiment
//	bcclap-experiments -quick     # smaller sweeps
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bcclap/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (e1..e12, e15) or all")
	quick := flag.Bool("quick", false, "smaller sweeps")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this duration (e.g. 10m; 0 = no limit)")
	flag.Parse()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, os.Stdout, *exp, *quick); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "bcclap-experiments: exceeded -timeout %v: %v\n", *timeout, err)
		} else {
			fmt.Fprintln(os.Stderr, "bcclap-experiments:", err)
		}
		os.Exit(1)
	}
}

// run executes the selected experiments and writes their tables to w as
// Markdown.
func run(ctx context.Context, w io.Writer, exp string, quick bool) error {
	selected := experiments.All
	if exp != "all" {
		e, err := experiments.Lookup(exp)
		if err != nil {
			return err
		}
		selected = []experiments.Experiment{e}
	}
	for _, e := range selected {
		tables, err := e.Run(ctx, quick)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "\n## %s — %s\n", strings.ToUpper(e.ID), e.Claim)
		for _, t := range tables {
			if t.Caption != "" {
				fmt.Fprintf(w, "\n%s\n", t.Caption)
			}
			fmt.Fprintf(w, "\n| %s |\n|%s\n", strings.Join(t.Columns, " | "), strings.Repeat("---|", len(t.Columns)))
			for _, row := range t.Rows {
				fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
			}
		}
	}
	return nil
}
