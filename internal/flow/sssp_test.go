package flow

import (
	"errors"
	"math/rand"
	"testing"

	"bcclap/internal/graph"
)

func TestShortestPathViaFlowMatchesDijkstra(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3; trial++ {
		d := graph.RandomFlowNetwork(5, 0.3, 2, 4, rnd)
		want, err := DijkstraCost(d, 0, d.N()-1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ShortestPathViaFlow(d, 0, d.N()-1, Options{
			Seed: int64(trial + 5),
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: flow-based %d vs Dijkstra %d", trial, got, want)
		}
	}
}

func TestShortestPathViaFlowRejectsNegativeCosts(t *testing.T) {
	d := graph.NewDigraph(3)
	if _, err := d.AddArc(0, 1, 1, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddArc(1, 2, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ShortestPathViaFlow(d, 0, 2, Options{}); err == nil {
		t.Fatal("negative costs accepted")
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	d := graph.NewDigraph(4)
	if _, err := d.AddArc(0, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddArc(3, 2, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := DijkstraCost(d, 0, 2); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Dijkstra: want ErrUnreachable, got %v", err)
	}
}

func TestDijkstraCostKnown(t *testing.T) {
	d := graph.NewDigraph(4)
	arcs := [][4]int64{{0, 1, 1, 1}, {1, 3, 1, 1}, {0, 2, 1, 5}, {2, 3, 1, 1}, {0, 3, 1, 9}}
	for _, a := range arcs {
		if _, err := d.AddArc(int(a[0]), int(a[1]), a[2], a[3]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := DijkstraCost(d, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("shortest path cost %d, want 2", got)
	}
}
