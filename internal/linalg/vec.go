package linalg

import (
	"errors"
	"math"
)

// ErrDimension is returned when vector or matrix dimensions do not match.
var ErrDimension = errors.New("linalg: dimension mismatch")

// Dot returns the inner product of x and y. It panics if lengths differ,
// since that is always a programming error in this codebase.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: Dot dimension mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}

// NormInf returns the maximum absolute entry of x (0 for an empty vector).
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// WeightedNorm returns sqrt(sum_i w_i * x_i^2), the ||x||_w norm used by the
// LP solver (Definition of ||.||_w in Section 4.1 of the paper).
func WeightedNorm(x, w []float64) float64 {
	if len(x) != len(w) {
		panic("linalg: WeightedNorm dimension mismatch")
	}
	var s float64
	for i, v := range x {
		s += w[i] * v * v
	}
	return math.Sqrt(s)
}

// AXPY computes y <- a*x + y in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY dimension mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// Scale multiplies every entry of x by a, in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Sub returns x - y as a new vector.
func Sub(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic("linalg: Sub dimension mismatch")
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return out
}

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Ones returns the all-ones vector of length n.
func Ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// Constant returns a vector of length n with every entry c.
func Constant(n int, c float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// Sum returns the sum of entries of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// ProjectOutOnes removes the component of x along the all-ones vector,
// returning x - mean(x)*1. Laplacian systems are only solvable for b
// orthogonal to the nullspace span{1}; solvers use this projection.
func ProjectOutOnes(x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	out := Clone(x)
	ProjectOutOnesInPlace(out)
	return out
}

// ProjectOutOnesInPlace subtracts the mean from every entry of x, the
// allocation-free form of ProjectOutOnes for workspace-based solvers.
func ProjectOutOnesInPlace(x []float64) {
	if len(x) == 0 {
		return
	}
	mean := Sum(x) / float64(len(x))
	for i := range x {
		x[i] -= mean
	}
}

// Median3 returns the median of a, b and c. The paper's algorithms use
// median(x, y, z) to clamp step sizes (Algorithms 7, 8 and 10).
func Median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// Clamp restricts v to the interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
