package experiments

import (
	"context"
	"fmt"
	"strings"
)

// Table is one Markdown table of an experiment's output: an optional
// caption printed above it, the column headings, and the formatted cells.
type Table struct {
	Caption string
	Columns []string
	Rows    [][]string
}

// newTable starts a table whose column headings are separated by "|".
func newTable(caption, columns string) *Table {
	return &Table{Caption: caption, Columns: strings.Split(columns, "|")}
}

// row appends one row, formatted by format with its cells separated by "|".
func (t *Table) row(format string, args ...any) {
	t.Rows = append(t.Rows, strings.Split(fmt.Sprintf(format, args...), "|"))
}

// Experiment is one registered experiment: its ID, the claim it measures,
// and its run at full or quick scale.
type Experiment struct {
	ID, Claim string
	Run       func(ctx context.Context, quick bool) ([]Table, error)
}

// All lists every experiment in the order the CLI runs them.
var All = []Experiment{
	{"e1", "Lemma 3.1: stretch ≤ 2k−1, |F⁺| = O(k·n^{1+1/k})", e1},
	{"e2", "Lemma 3.2: rounds O(k·n^{1/k}(log n + log W))", e2},
	{"e3", "Theorem 1.2: (1±ε) quality band, size, BC rounds", e3},
	{"e4", "Lemma 3.3: ad-hoc ≡ a-priori output distribution", e4},
	{"e5", "Theorem 1.3: O(log 1/ε) iterations; per-instance ≪ preprocessing rounds", e5},
	{"e6", "Lemma 4.5: Kane–Nelson leverage scores within (1±η)", e6},
	{"e7", "Lemma 4.10: projection rounds grow polylog in m", e7},
	{"e8", "Theorem 1.4: path steps = Õ(√n·log(U/ε))", e8},
	{"e9", "Theorem 1.1: exact MCMF via the LP pipeline (vs SSP baseline)", e9},
	{"e10", "Lemma 5.1: SDD solving through the 2n-vertex Laplacian reduction", e10},
	{"e11", "Ablation: bundle size t vs sparsifier size and quality", e11},
	{"e12", "Theorem 1.2's orientation: globalization rounds = max out-degree", e12},
	{"e15", "Backend registry: identical certified (value, cost), per-backend wall-clock", e15},
}

// Lookup returns the experiment with the given ID, ignoring case. The
// error for an unknown ID lists the valid ones.
func Lookup(id string) (Experiment, error) {
	ids := make([]string, len(All))
	for i, e := range All {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
		ids[i] = e.ID
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (valid: %s, all)", id, strings.Join(ids, ", "))
}

// pick returns small at quick scale and full otherwise.
func pick[T any](quick bool, full, small T) T {
	if quick {
		return small
	}
	return full
}
