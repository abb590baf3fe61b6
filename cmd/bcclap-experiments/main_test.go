package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bcclap/internal/experiments"
)

// Every registered experiment runs at quick scale and returns tables whose
// rows fill every column.
func TestEveryExperimentQuick(t *testing.T) {
	for _, e := range experiments.All {
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(context.Background(), true)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for i, tab := range tables {
				if len(tab.Columns) == 0 || len(tab.Rows) == 0 {
					t.Errorf("table %d: %d columns, %d rows", i, len(tab.Columns), len(tab.Rows))
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("table %d: row %q does not match columns %q", i, row, tab.Columns)
					}
				}
			}
		})
	}
}

func TestRunRendersMarkdown(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, "E4", true); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"## E4 — Lemma 3.3", "| algorithm | trials | mean sparsifier size |\n|---|---|---|\n", "| ad-hoc (Alg 5) | 100 |"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunUnknownExperimentListsIDs(t *testing.T) {
	err := run(context.Background(), &bytes.Buffer{}, "e13", true)
	if err == nil {
		t.Fatal("unknown experiment e13 ran")
	}
	for _, e := range experiments.All {
		if !strings.Contains(err.Error(), e.ID+",") {
			t.Errorf("error %q does not list %s", err, e.ID)
		}
	}
}

// roundsExperiments are the experiments whose tables carry a rounds
// column: the paper's communication costs in the BCC and Broadcast
// CONGEST models.
var roundsExperiments = []string{"e2", "e3", "e5", "e7"}

// TestRoundsGolden pins the whole -quick tables of every experiment with
// a rounds column to testdata/rounds.golden. A change to the paper's
// round accounting fails here, and so does any change to the other cells
// (spectral bands, kept-edge counts, residuals), so numerical drift in
// the sparsifier or the solver fails here too. The file is the output of
//
//	for e in e2 e3 e5 e7; do go run ./cmd/bcclap-experiments -exp $e -quick; done
func TestRoundsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, id := range roundsExperiments {
		if err := run(context.Background(), &got, id, true); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "rounds.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("rounds tables moved from testdata/rounds.golden.\ngot:%s\nwant:%s", got.String(), want)
	}
}
