package lp

import (
	"fmt"
	"math"
)

// Barriers bundles the per-coordinate 1-self-concordant barrier functions
// of Section 4.1: a log barrier for one-sided domains and the trigonometric
// barrier −log cos(a·x + b) for two-sided ones.
type Barriers struct {
	l, u []float64
}

// NewBarriers validates the domains (each coordinate must be bounded on at
// least one side, with l < u).
func NewBarriers(l, u []float64) (*Barriers, error) {
	if len(l) != len(u) {
		return nil, fmt.Errorf("lp: bounds length mismatch %d vs %d", len(l), len(u))
	}
	for i := range l {
		if math.IsInf(l[i], -1) && math.IsInf(u[i], 1) {
			return nil, fmt.Errorf("lp: coordinate %d unbounded on both sides", i)
		}
		if !(l[i] < u[i]) {
			return nil, fmt.Errorf("lp: empty domain [%g, %g] at %d", l[i], u[i], i)
		}
	}
	return &Barriers{l: append([]float64(nil), l...), u: append([]float64(nil), u...)}, nil
}

// Interior reports whether x is strictly inside the domain.
func (b *Barriers) Interior(x []float64) bool {
	for i, v := range x {
		if !(v > b.l[i]) && !math.IsInf(b.l[i], -1) {
			return false
		}
		if !(v < b.u[i]) && !math.IsInf(b.u[i], 1) {
			return false
		}
		if math.IsNaN(v) {
			return false
		}
	}
	return true
}

func (b *Barriers) trigParams(i int) (a, off float64) {
	a = math.Pi / (b.u[i] - b.l[i])
	off = -math.Pi / 2 * (b.u[i] + b.l[i]) / (b.u[i] - b.l[i])
	return a, off
}

// Phi returns φ_i(x_i) for every coordinate.
func (b *Barriers) Phi(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		switch {
		case math.IsInf(b.u[i], 1):
			out[i] = -math.Log(v - b.l[i])
		case math.IsInf(b.l[i], -1):
			out[i] = -math.Log(b.u[i] - v)
		default:
			a, off := b.trigParams(i)
			out[i] = -math.Log(math.Cos(a*v + off))
		}
	}
	return out
}

// D1 returns the derivatives φ′_i(x_i).
func (b *Barriers) D1(x []float64) []float64 {
	out := make([]float64, len(x))
	b.D1To(out, x)
	return out
}

// D1To writes the derivatives φ′_i(x_i) into out (allocation-free form).
func (b *Barriers) D1To(out, x []float64) {
	for i, v := range x {
		switch {
		case math.IsInf(b.u[i], 1):
			out[i] = -1 / (v - b.l[i])
		case math.IsInf(b.l[i], -1):
			out[i] = 1 / (b.u[i] - v)
		default:
			a, off := b.trigParams(i)
			out[i] = a * math.Tan(a*v+off)
		}
	}
}

// D2 returns the second derivatives φ″_i(x_i) (always positive on the
// interior).
func (b *Barriers) D2(x []float64) []float64 {
	out := make([]float64, len(x))
	b.D2To(out, x)
	return out
}

// D2To writes the second derivatives φ″_i(x_i) into out (allocation-free
// form).
func (b *Barriers) D2To(out, x []float64) {
	for i, v := range x {
		switch {
		case math.IsInf(b.u[i], 1):
			d := v - b.l[i]
			out[i] = 1 / (d * d)
		case math.IsInf(b.l[i], -1):
			d := b.u[i] - v
			out[i] = 1 / (d * d)
		default:
			a, off := b.trigParams(i)
			t := math.Tan(a*v + off)
			out[i] = a * a * (1 + t*t)
		}
	}
}

// StepToBoundary returns the largest s ∈ (0, 1] such that x + s·dx stays
// strictly interior with the given relative margin; used to safeguard
// Newton steps in floating point.
func (b *Barriers) StepToBoundary(x, dx []float64, margin float64) float64 {
	s := 1.0
	for i := range x {
		if dx[i] > 0 && !math.IsInf(b.u[i], 1) {
			room := (b.u[i] - x[i]) * (1 - margin)
			if dx[i]*s > room {
				s = room / dx[i]
			}
		}
		if dx[i] < 0 && !math.IsInf(b.l[i], -1) {
			room := (x[i] - b.l[i]) * (1 - margin)
			if -dx[i]*s > room {
				s = room / -dx[i]
			}
		}
	}
	if s < 0 {
		s = 0
	}
	return s
}
