package graph

import (
	"errors"
	"testing"
)

func deltaTestDigraph(t *testing.T) *Digraph {
	t.Helper()
	d := NewDigraph(4)
	arcs := [][4]int64{{0, 1, 5, 2}, {1, 2, 3, 0}, {2, 3, 7, 1}, {0, 2, 2, 4}}
	for _, a := range arcs {
		if _, err := d.AddArc(int(a[0]), int(a[1]), a[2], a[3]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestCheckDeltasValidation(t *testing.T) {
	d := deltaTestDigraph(t)
	cases := []struct {
		name string
		ds   []ArcDelta
		ok   bool
	}{
		{"in-range", []ArcDelta{{Arc: 0, CapDelta: 1}}, true},
		{"negative index", []ArcDelta{{Arc: -1}}, false},
		{"index past end", []ArcDelta{{Arc: 4}}, false},
		{"cap to zero", []ArcDelta{{Arc: 1, CapDelta: -3}}, false},
		{"cap below zero", []ArcDelta{{Arc: 1, CapDelta: -5}}, false},
		{"cap to one", []ArcDelta{{Arc: 1, CapDelta: -2}}, true},
		{"cost only", []ArcDelta{{Arc: 2, CostDelta: -1}}, true},
		// Cumulative: each step individually keeps cap positive, the pair
		// does not.
		{"cumulative underflow", []ArcDelta{{Arc: 0, CapDelta: -2}, {Arc: 0, CapDelta: -3}}, false},
		{"cumulative ok", []ArcDelta{{Arc: 0, CapDelta: -2}, {Arc: 0, CapDelta: 1}}, true},
	}
	for _, tc := range cases {
		err := CheckDeltas(d.Arcs(), tc.ds)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			} else if !errors.Is(err, ErrBadDelta) {
				t.Errorf("%s: error %v does not wrap ErrBadDelta", tc.name, err)
			}
		}
	}
}

func TestApplyDeltasAllOrNothing(t *testing.T) {
	d := deltaTestDigraph(t)
	before := d.Arcs()
	// Second delta is invalid; the first must not have been applied.
	err := d.ApplyDeltas([]ArcDelta{{Arc: 0, CapDelta: 1}, {Arc: 9}})
	if !errors.Is(err, ErrBadDelta) {
		t.Fatalf("err = %v, want ErrBadDelta", err)
	}
	for i, a := range d.Arcs() {
		if a != before[i] {
			t.Fatalf("arc %d mutated by failed ApplyDeltas: %+v -> %+v", i, before[i], a)
		}
	}

	if err := d.ApplyDeltas([]ArcDelta{{Arc: 0, CapDelta: -2, CostDelta: 3}, {Arc: 3, CapDelta: 5}}); err != nil {
		t.Fatal(err)
	}
	if a := d.Arc(0); a.Cap != 3 || a.Cost != 5 {
		t.Fatalf("arc 0 = %+v, want cap 3 cost 5", a)
	}
	if a := d.Arc(3); a.Cap != 7 || a.Cost != 4 {
		t.Fatalf("arc 3 = %+v, want cap 7 cost 4", a)
	}
	// Topology untouched.
	if d.M() != 4 || len(d.Out(0)) != 2 || inDegree(d, 2) != 2 {
		t.Fatal("ApplyDeltas disturbed topology")
	}
}

func TestDigraphCloneIndependence(t *testing.T) {
	d := deltaTestDigraph(t)
	c := d.Clone()
	if err := c.ApplyDeltas([]ArcDelta{{Arc: 0, CapDelta: 10, CostDelta: 10}}); err != nil {
		t.Fatal(err)
	}
	if d.Arc(0).Cap != 5 || d.Arc(0).Cost != 2 {
		t.Fatal("Clone shares arc storage with the original")
	}
	if _, err := c.AddArc(3, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if d.M() == c.M() {
		t.Fatal("Clone shares the arc list")
	}
	if len(d.Out(3)) == len(c.Out(3)) {
		t.Fatal("Clone shares adjacency")
	}
}
