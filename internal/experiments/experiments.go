package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"bcclap"
	"bcclap/internal/graph"
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
	{"e16", "Backend registry at scale: median AᵀDA solve per backend", rendered(E16)},
	{"e19", "Combinatorial preconditioning: csr-pcg vs csr-cg inner iterations per query", measured(PrecondWorkloads)},
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

// rendered registers an experiment whose result is a snapshot; see
// snapshotTables.
func rendered[R any](f func(context.Context, bool) (R, error)) func(context.Context, bool) ([]Table, error) {
	return func(ctx context.Context, quick bool) ([]Table, error) {
		r, err := f(ctx, quick)
		if err != nil {
			return nil, err
		}
		return snapshotTables(r)
	}
}

// measured registers an experiment defined by its workloads; see Measure.
func measured[R any](f func(context.Context, bool) (R, []Workload, error)) func(context.Context, bool) ([]Table, error) {
	return rendered(func(ctx context.Context, quick bool) (R, error) { return Measure(f(ctx, quick)) })
}

// Snapshot decodes v's JSON encoding into a map, every number kept as
// encoded. The results of e16 and e19 encode as the layout of their
// BENCH_*.json snapshots, which are this map plus host facts.
func Snapshot(v any) (map[string]any, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.UseNumber()
	var snap map[string]any
	return snap, dec.Decode(&snap)
}

// snapshotTables renders a result as its snapshot: the scalar fields of
// each object form a row labelled with the object's path, and objects
// with the same fields share one table. Fields of or in an object ending
// in _ns print as durations.
func snapshotTables(v any) ([]Table, error) {
	snap, err := Snapshot(v)
	if err != nil {
		return nil, err
	}
	var tables []Table
	byFields := map[string]int{}
	var walk func(path string, obj map[string]any)
	walk = func(path string, obj map[string]any) {
		var fields, cells, children []string
		for _, k := range slices.Sorted(maps.Keys(obj)) {
			if _, ok := obj[k].(map[string]any); ok {
				children = append(children, k)
				continue
			}
			s := fmt.Sprint(obj[k])
			if n, ok := obj[k].(json.Number); ok {
				if i, err := n.Int64(); err != nil {
					f, _ := n.Float64()
					s = strconv.FormatFloat(f, 'g', 4, 64)
				} else if strings.HasSuffix(k, "_ns") || strings.HasSuffix(path, "_ns") {
					s = time.Duration(i).Round(time.Microsecond).String()
				}
			}
			fields, cells = append(fields, k), append(cells, s)
		}
		if len(fields) > 0 {
			key := strings.Join(fields, "|")
			i, ok := byFields[key]
			if !ok {
				i, byFields[key] = len(tables), len(tables)
				tables = append(tables, Table{Columns: append([]string{"object"}, fields...)})
			}
			tables[i].Rows = append(tables[i].Rows, append([]string{path}, cells...))
		}
		for _, k := range children {
			walk(strings.TrimPrefix(path+"."+k, "."), obj[k].(map[string]any))
		}
	}
	walk("", snap)
	return tables, nil
}

// pick returns small at quick scale and full otherwise.
func pick[T any](quick bool, full, small T) T {
	if quick {
		return small
	}
	return full
}

// median runs f five times and returns the median wall time, or f's
// first error. It is the timing method of every committed snapshot.
func median(f func() error) (time.Duration, error) {
	times := make([]time.Duration, 5)
	for i := range times {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times[i] = time.Since(start)
	}
	slices.Sort(times)
	return times[len(times)/2], nil
}

// Workload is one named operation of e19, timed by its benchmark in the
// root package, which runs it b.N times, and by Measure, which takes the
// median of five repetitions. Start builds the operation's state,
// untimed, and returns the step to time (its argument counts calls from
// 0) and, unless err is set, the release of that state. Metrics, if set,
// reports quantities of the last step after the release, for the
// benchmark to print next to its timing.
type Workload struct {
	Name    string
	Start   func() (step func(i int) error, release func(), err error)
	Metrics func() map[string]float64

	record func(time.Duration) // receives Measure's median repetition
}

// Measure times the workloads of PrecondWorkloads in order, each as the
// median of five repetitions, and returns the result they record into.
func Measure[R any](r R, ws []Workload, err error) (R, error) {
	if err != nil {
		return r, err
	}
	for _, w := range ws {
		step, release, err := w.Start()
		if err != nil {
			return r, fmt.Errorf("%s: %w", w.Name, err)
		}
		i := -1
		d, err := median(func() error {
			i++
			return step(i)
		})
		release()
		if err != nil {
			return r, fmt.Errorf("%s: %w", w.Name, err)
		}
		w.record(d)
	}
	return r, nil
}

// Instance is a flow query of e19 with its exact answer (the SSP
// baseline), as the snapshots record it.
type Instance struct {
	N     int   `json:"graph_n"`
	M     int   `json:"graph_m"`
	S     int   `json:"s"`
	T     int   `json:"t"`
	Value int64 `json:"value"`
	Cost  int64 `json:"cost"`
}

// newInstance solves (0, n−1) on d with the SSP baseline.
func newInstance(d *graph.Digraph) (Instance, error) {
	v, c, _, err := bcclap.MinCostMaxFlowBaseline(d, 0, d.N()-1)
	return Instance{d.N(), d.M(), 0, d.N() - 1, v, c}, err
}

// check fails unless res is the instance's exact answer.
func (in Instance) check(res *bcclap.FlowResult) error {
	if res.Value != in.Value || res.Cost != in.Cost {
		return fmt.Errorf("certified (%d, %d) differs from the SSP baseline (%d, %d)", res.Value, res.Cost, in.Value, in.Cost)
	}
	return nil
}
