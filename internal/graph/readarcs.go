package graph

import (
	"fmt"
	"io"
)

// MaxVertices bounds the vertex count accepted from untrusted input (an
// arc-list header, a daemon network spec), checked before NewDigraph
// allocates two adjacency slots per vertex.
const MaxVertices = 1 << 12

// ReadArcList reads m whitespace-separated arc lines "from to capacity
// cost" from r into a fresh digraph on n vertices — the arc format of
// bcclap-flow's input, after its header. A negative n or m, or n above
// MaxVertices, is an error. Pass a buffered reader; fmt.Fscan is used per
// field.
func ReadArcList(r io.Reader, n, m int) (*Digraph, error) {
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("read arcs: negative size n=%d m=%d", n, m)
	}
	if n > MaxVertices {
		return nil, fmt.Errorf("read arcs: %d vertices exceeds the limit of %d", n, MaxVertices)
	}
	d := NewDigraph(n)
	for i := 0; i < m; i++ {
		var u, v int
		var c, q int64
		if _, err := fmt.Fscan(r, &u, &v, &c, &q); err != nil {
			return nil, fmt.Errorf("read arc %d: %w", i, err)
		}
		if _, err := d.AddArc(u, v, c, q); err != nil {
			return nil, err
		}
	}
	return d, nil
}
