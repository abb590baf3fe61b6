package graph

import (
	"runtime"
	"strings"
	"testing"
)

// Negative sizes are errors, not a makeslice panic in NewDigraph (the
// bcclap-flow header "-1 0 0 0" used to crash it).
func TestReadArcListRejectsNegativeSizes(t *testing.T) {
	for _, c := range []struct{ n, m int }{{-1, 0}, {-5, 2}, {3, -1}} {
		if d, err := ReadArcList(strings.NewReader("0 1 1 1\n"), c.n, c.m); err == nil {
			t.Errorf("n=%d m=%d: got a digraph on %d vertices, want an error", c.n, c.m, d.N())
		}
	}
}

// A vertex count above MaxVertices is an error raised before the
// digraph's adjacency is allocated. One vertex past the bound keeps the
// test cheap even if the check is lost: it then fails on the missing
// error and on the allocation it measures.
func TestReadArcListBoundsVertices(t *testing.T) {
	n := MaxVertices + 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := ReadArcList(strings.NewReader("0 1 1 1\n"), n, 1)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("n=%d: got a digraph on %d vertices, want an error", n, d.N())
	}
	// NewDigraph(n) would take two n-slot slices of slice headers.
	if got, adj := after.TotalAlloc-before.TotalAlloc, uint64(2*n*24); got >= adj {
		t.Fatalf("rejecting n=%d allocated %d bytes, at least the %d of its adjacency", n, got, adj)
	}
	if _, err := ReadArcList(strings.NewReader("0 1 1 1\n"), MaxVertices, 1); err != nil {
		t.Fatalf("n=MaxVertices rejected: %v", err)
	}
}

// FuzzReadArcList feeds arbitrary sizes and arc text to ReadArcList: it
// must return a digraph holding exactly the m arcs it read, or an error —
// never panic, and never allocate for a vertex count above MaxVertices.
func FuzzReadArcList(f *testing.F) {
	f.Add(-1, 0, "")
	f.Add(3, -1, "0 1 1 1")
	f.Add(0, 0, "")
	f.Add(4, 4, "0 1 2 1\n1 2 2 1\n2 3 1 4\n0 3 5 -2\n")
	f.Add(2, 2, "0 1 3 0\n0 1 3 7\n")
	f.Add(3, 1, "0 3 1 1")
	f.Add(3, 1, "1 1 1 1")
	f.Add(3, 1, "0 1 0 1")
	f.Add(3, 2, "0 1 1 1\n1 x 1 1")
	f.Add(4000000000, 1, "0 1 1 1")
	f.Add(MaxVertices+1, 1, "0 1 1 1")
	f.Fuzz(func(t *testing.T, n, m int, arcs string) {
		d, err := ReadArcList(strings.NewReader(arcs), n, m)
		if err != nil {
			return
		}
		if d.N() != n || d.M() != m {
			t.Fatalf("n=%d m=%d: read a digraph with %d vertices and %d arcs", n, m, d.N(), d.M())
		}
		for i, a := range d.Arcs() {
			if a.From < 0 || a.From >= n || a.To < 0 || a.To >= n || a.From == a.To || a.Cap <= 0 {
				t.Fatalf("arc %d = %+v is not a valid arc on %d vertices", i, a, n)
			}
		}
	})
}
