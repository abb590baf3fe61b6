package jl

import (
	"fmt"
	"math"
)

// Sketch is a k×m matrix Q with the JL property
// (1−η)‖x‖₂ ≤ ‖Qx‖₂ ≤ (1+η)‖x‖₂ w.h.p.
type Sketch interface {
	// Apply returns Q·x.
	Apply(x []float64) []float64
	// Row returns row j of Q as a dense m-vector.
	Row(j int) []float64
	// K returns the sketch dimension (number of rows).
	K() int
	// M returns the input dimension (number of columns).
	M() int
}

// polyHash is a degree-3 polynomial hash over the Mersenne prime 2⁶¹−1,
// giving 4-wise independence from four 61-bit coefficients — the limited-
// randomness primitive Kane–Nelson style constructions are built from.
type polyHash struct {
	coeffs [4]uint64
}

const _mersenne61 = (1 << 61) - 1

func (h polyHash) eval(x uint64) uint64 {
	x %= _mersenne61
	var acc uint64
	for _, c := range h.coeffs {
		acc = mulmod61(acc, x) + c
		if acc >= _mersenne61 {
			acc -= _mersenne61
		}
	}
	return acc
}

// mulmod61 multiplies modulo 2⁶¹−1 using 128-bit arithmetic via math/bits-
// style decomposition (hand-rolled to stay dependency-free).
func mulmod61(a, b uint64) uint64 {
	// Split a into high/low 32-bit halves; (aH·2³² + aL)·b mod p.
	aH, aL := a>>32, a&0xffffffff
	bH, bL := b>>32, b&0xffffffff
	// a·b = aH·bH·2⁶⁴ + (aH·bL + aL·bH)·2³² + aL·bL.
	hi := aH * bH
	mid1 := aH * bL
	mid2 := aL * bH
	lo := aL * bL
	// Accumulate modulo 2⁶¹−1 using 2⁶¹ ≡ 1: x·2⁶⁴ ≡ x·8, x·2³² folding.
	res := reduce61(lo)
	res = add61(res, reduce61(shl61(mid1, 32)))
	res = add61(res, reduce61(shl61(mid2, 32)))
	res = add61(res, reduce61(shl61(hi, 64%61)))
	// hi·2⁶⁴ = hi·2⁶¹·2³ ≡ hi·8: shl61(hi, 3) — handled above with 64%61=3.
	return res
}

func reduce61(x uint64) uint64 {
	x = (x >> 61) + (x & _mersenne61)
	if x >= _mersenne61 {
		x -= _mersenne61
	}
	return x
}

func add61(a, b uint64) uint64 {
	s := a + b
	if s >= _mersenne61 {
		s -= _mersenne61
	}
	return s
}

// shl61 computes (x << s) mod 2⁶¹−1 for s < 61 without overflow by
// rotating within 61 bits (2⁶¹ ≡ 1 mod p makes shifts rotations).
func shl61(x uint64, s uint64) uint64 {
	x = reduce61(x)
	s %= 61
	hi := x >> (61 - s)
	lo := (x << s) & _mersenne61
	return add61(hi, lo)
}

// KaneNelson is the sparse JL transform: k rows split into s blocks; every
// column has exactly one ±1/√s entry per block, with the row-within-block
// and the sign chosen by 4-wise independent hashes expanded from a short
// shared seed.
type KaneNelson struct {
	k, m, s   int
	blockSize int
	rowHash   []polyHash
	signHash  []polyHash
}

var _ Sketch = (*KaneNelson)(nil)

// NewKaneNelson builds the sketch from a seed. The seed models the
// O(log²m) shared random bits broadcast by the leader in Algorithm 6: all
// vertices expand the same seed into the same Q. s (non-zeros per column)
// defaults to ⌈k/4⌉ when 0.
func NewKaneNelson(k, m, s int, seed int64) (*KaneNelson, error) {
	if k <= 0 || m <= 0 {
		return nil, fmt.Errorf("jl: bad dimensions k=%d m=%d", k, m)
	}
	if s <= 0 {
		s = (k + 3) / 4
	}
	if s > k {
		s = k
	}
	// Round k up so blocks divide evenly.
	blockSize := (k + s - 1) / s
	k = blockSize * s
	kn := &KaneNelson{k: k, m: m, s: s, blockSize: blockSize,
		rowHash: make([]polyHash, s), signHash: make([]polyHash, s)}
	// Expand the seed with a splitmix-style generator; the seed itself is
	// the short broadcast randomness.
	state := uint64(seed)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < s; i++ {
		for c := 0; c < 4; c++ {
			kn.rowHash[i].coeffs[c] = next() % _mersenne61
			kn.signHash[i].coeffs[c] = next() % _mersenne61
		}
	}
	return kn, nil
}

// entries returns, for column col, the s (row, value) pairs.
func (s *KaneNelson) entries(col int) []struct {
	row int
	val float64
} {
	out := make([]struct {
		row int
		val float64
	}, s.s)
	inv := 1 / math.Sqrt(float64(s.s))
	for b := 0; b < s.s; b++ {
		r := int(s.rowHash[b].eval(uint64(col)+1) % uint64(s.blockSize))
		sign := inv
		if s.signHash[b].eval(uint64(col)+1)&1 == 1 {
			sign = -inv
		}
		out[b].row = b*s.blockSize + r
		out[b].val = sign
	}
	return out
}

// Apply returns Q·x.
func (s *KaneNelson) Apply(x []float64) []float64 {
	out := make([]float64, s.k)
	for col, xv := range x {
		if xv == 0 {
			continue
		}
		for _, e := range s.entries(col) {
			out[e.row] += e.val * xv
		}
	}
	return out
}

// Row returns row j of Q as a dense vector.
func (s *KaneNelson) Row(j int) []float64 {
	out := make([]float64, s.m)
	for col := 0; col < s.m; col++ {
		for _, e := range s.entries(col) {
			if e.row == j {
				out[col] = e.val
			}
		}
	}
	return out
}

// K returns the (possibly rounded-up) sketch dimension.
func (s *KaneNelson) K() int { return s.k }

// M returns the input dimension.
func (s *KaneNelson) M() int { return s.m }
