package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDotBasic(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotSymmetricProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		x, y := clampVec(xs[:n]), clampVec(ys[:n])
		return almostEq(Dot(x, y), Dot(y, x), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCauchySchwarzProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		x, y := clampVec(xs[:n]), clampVec(ys[:n])
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)*(1+1e-9)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		x, y := clampVec(xs[:n]), clampVec(ys[:n])
		sum := Clone(x)
		AXPY(1, y, sum)
		return Norm2(sum) <= Norm2(x)+Norm2(y)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// clampVec replaces NaN/Inf/huge fuzz values so that float identities hold
// in exact-enough arithmetic.
func clampVec(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[i] = math.Mod(v, 1e6)
	}
	return out
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if got := Norm2(x); got != 5 {
		t.Errorf("Norm2 = %v", got)
	}
	if got := NormInf(x); got != 4 {
		t.Errorf("NormInf = %v", got)
	}
	if got := WeightedNorm(x, []float64{1, 0.25}); got != math.Sqrt(9+4) {
		t.Errorf("WeightedNorm = %v", got)
	}
}

func TestAXPYScale(t *testing.T) {
	y := []float64{1, 1}
	AXPY(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Fatalf("AXPY = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 1.5 || y[1] != 2.5 {
		t.Fatalf("Scale = %v", y)
	}
}

func TestProjectOutOnes(t *testing.T) {
	x := ProjectOutOnes([]float64{1, 2, 3, 6})
	if !almostEq(Sum(x), 0, 1e-12) {
		t.Fatalf("sum after projection = %v", Sum(x))
	}
	// Idempotent.
	y := ProjectOutOnes(x)
	for i := range x {
		if !almostEq(x[i], y[i], 1e-12) {
			t.Fatalf("not idempotent at %d: %v vs %v", i, x[i], y[i])
		}
	}
}

func TestMedian3(t *testing.T) {
	cases := [][4]float64{
		{1, 2, 3, 2}, {3, 2, 1, 2}, {2, 1, 3, 2}, {5, 5, 1, 5}, {1, 5, 5, 5},
	}
	for _, c := range cases {
		if got := Median3(c[0], c[1], c[2]); got != c[3] {
			t.Errorf("Median3(%v,%v,%v) = %v, want %v", c[0], c[1], c[2], got, c[3])
		}
	}
}

func TestMedian3Property(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		m := Median3(a, b, c)
		// The median is one of the inputs and at least one input is <= m
		// and one is >= m.
		isInput := m == a || m == b || m == c
		le := 0
		ge := 0
		for _, v := range []float64{a, b, c} {
			if v <= m {
				le++
			}
			if v >= m {
				ge++
			}
		}
		return isInput && le >= 2 && ge >= 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-2, 0, 3) != 0 || Clamp(1, 0, 3) != 1 {
		t.Fatal("Clamp wrong")
	}
}
