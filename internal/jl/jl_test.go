package jl

import (
	"math"
	"math/rand"
	"testing"

	"bcclap/internal/linalg"
)

func TestKaneNelsonNormPreservation(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	m := 200
	k := 236 // ⌈4·ln(m+2)/η²⌉ at η = 0.3
	sk, err := NewKaneNelson(k, m, 0, 12345)
	if err != nil {
		t.Fatal(err)
	}
	good := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		x := make([]float64, m)
		for j := range x {
			x[j] = rnd.NormFloat64()
		}
		r := linalg.Norm2(sk.Apply(x)) / linalg.Norm2(x)
		if r > 0.6 && r < 1.4 {
			good++
		}
	}
	if good < trials-2 {
		t.Fatalf("only %d/%d vectors within distortion band", good, trials)
	}
}

func TestKaneNelsonDeterministicFromSeed(t *testing.T) {
	a, err := NewKaneNelson(16, 50, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewKaneNelson(16, 50, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 50)
	for i := range x {
		x[i] = float64(i) - 20
	}
	ya, yb := a.Apply(x), b.Apply(x)
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatal("same seed produced different sketches — the shared-seed broadcast argument breaks")
		}
	}
	c, err := NewKaneNelson(16, 50, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	yc := c.Apply(x)
	same := true
	for i := range ya {
		if ya[i] != yc[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sketches")
	}
}

func TestKaneNelsonRowMatchesApply(t *testing.T) {
	sk, err := NewKaneNelson(12, 30, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(3))
	x := make([]float64, 30)
	for i := range x {
		x[i] = rnd.NormFloat64()
	}
	y := sk.Apply(x)
	for j := 0; j < sk.K(); j++ {
		if got := linalg.Dot(sk.Row(j), x); math.Abs(got-y[j]) > 1e-12 {
			t.Fatalf("row %d: %v vs %v", j, got, y[j])
		}
	}
}

func TestKaneNelsonSparsityPerColumn(t *testing.T) {
	sk, err := NewKaneNelson(12, 20, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for col := 0; col < 20; col++ {
		nz := 0
		for j := 0; j < sk.K(); j++ {
			if sk.Row(j)[col] != 0 {
				nz++
			}
		}
		if nz > 3 {
			t.Fatalf("column %d has %d nonzeros, want ≤ 3 (hash collisions within a block can only reduce)", col, nz)
		}
	}
}

func TestMulMod61(t *testing.T) {
	// Cross-check against big-integer-free small cases.
	cases := [][3]uint64{
		{0, 5, 0},
		{1, _mersenne61 - 1, _mersenne61 - 1},
		{2, 1 << 60, (1 << 61) % _mersenne61},
		{123456789, 987654321, (123456789 * 987654321) % _mersenne61},
	}
	for _, c := range cases {
		if got := mulmod61(c[0], c[1]); got != c[2] {
			t.Fatalf("mulmod61(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
	// Large values: verify via the identity a·b mod p computed with
	// float-free doubling.
	rnd := rand.New(rand.NewSource(4))
	slowMul := func(a, b uint64) uint64 {
		var acc uint64
		a %= _mersenne61
		for b > 0 {
			if b&1 == 1 {
				acc = add61(acc, a)
			}
			a = add61(a, a)
			b >>= 1
		}
		return acc
	}
	for i := 0; i < 200; i++ {
		a := rnd.Uint64() % _mersenne61
		b := rnd.Uint64() % _mersenne61
		if got, want := mulmod61(a, b), slowMul(a, b); got != want {
			t.Fatalf("mulmod61(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
}

func buildTallMatrix(m, n int, rnd *rand.Rand) *linalg.CSR {
	var ts []linalg.Triple
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rnd.Float64() < 0.6 {
				ts = append(ts, linalg.Triple{Row: i, Col: j, Val: rnd.NormFloat64()})
			}
		}
		// Guarantee no zero row.
		ts = append(ts, linalg.Triple{Row: i, Col: i % n, Val: 1 + rnd.Float64()})
	}
	return linalg.NewCSR(m, n, ts)
}

func TestLeverageScoresExactProperties(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	m, n := 30, 6
	a := buildTallMatrix(m, n, rnd)
	d := make([]float64, m)
	for i := range d {
		d[i] = 0.5 + rnd.Float64()
	}
	gram := linalg.NewGramFactor(a)
	if !gram.Factor(squares(d)) {
		t.Fatal("Gram matrix is not positive definite")
	}
	solve := gram.Solve
	sigma, err := NewExactLeverage(a).Scores(d, solve)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i, s := range sigma {
		if s < -1e-9 || s > 1+1e-9 {
			t.Fatalf("leverage score %d = %v outside [0,1]", i, s)
		}
		sum += s
	}
	// Σσ = rank(M) = n.
	if math.Abs(sum-float64(n)) > 1e-6 {
		t.Fatalf("Σσ = %v, want %d", sum, n)
	}
}

// leverageScoresPerRow is the one-solve-per-row reference for
// ExactLeverage: σᵢ = eᵢᵀM(MᵀM)⁻¹Mᵀeᵢ with M = diag(d)·A, m solves.
func leverageScoresPerRow(a *linalg.CSR, d []float64, solve GramSolver) ([]float64, error) {
	m := a.Rows()
	sigma := make([]float64, m)
	for i := 0; i < m; i++ {
		ei := make([]float64, m)
		ei[i] = d[i]
		s, err := solve(a.MulVecT(ei))
		if err != nil {
			return nil, err
		}
		sigma[i] = d[i] * a.MulVec(s)[i]
	}
	return sigma, nil
}

// gramCond1 returns the 1-norm condition number κ₁(G) = ‖G‖₁·‖G⁻¹‖₁ of
// G = AᵀD²A, reading G⁻¹ column by column through solve.
func gramCond1(a *linalg.CSR, d []float64, solve GramSolver) (float64, error) {
	n := a.Cols()
	ad := a.Dense()
	var gNorm, gInvNorm float64
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		var colSum float64
		for k := 0; k < n; k++ {
			var g float64
			for r := 0; r < a.Rows(); r++ {
				g += d[r] * d[r] * ad.At(r, j) * ad.At(r, k)
			}
			colSum += math.Abs(g)
		}
		gNorm = math.Max(gNorm, colSum)
		e[j] = 1
		x, err := solve(e)
		e[j] = 0
		if err != nil {
			return 0, err
		}
		var xSum float64
		for _, v := range x {
			xSum += math.Abs(v)
		}
		gInvNorm = math.Max(gInvNorm, xSum)
	}
	return gNorm * gInvNorm, nil
}

// TestLeverageScoresExactMatchesPerRow pins the column form (n solves) to
// the per-row reference (m solves) on tall matrices whose row scaling
// spans twelve decades, the spread barrier diagonals reach. Both forms
// read G⁻¹ through the same Gram solve, whose forward error grows with
// κ(G)·ε; past κ(G)·ε = 1e-10 they agree to that floor, not to 1e-10
// (both then sit equally far from an orthogonalization-based truth).
func TestLeverageScoresExactMatchesPerRow(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	compared, atFloor := 0, 0
	for trial := 0; trial < 40; trial++ {
		n := 2 + rnd.Intn(7)
		m := 3*n + rnd.Intn(20)
		a := buildTallMatrix(m, n, rnd)
		d := make([]float64, m)
		for i := range d {
			d[i] = math.Pow(10, -6+12*rnd.Float64())
		}
		gram := linalg.NewGramFactor(a)
		if !gram.Factor(squares(d)) {
			continue // G numerically singular: no leverage scores to compare
		}
		solve := gram.Solve
		compared++
		kappa, err := gramCond1(a, d, solve)
		if err != nil {
			t.Fatal(err)
		}
		tol := math.Max(1e-10, 2*kappa*0x1p-52)
		if tol == 1e-10 {
			atFloor++
		}
		got, err := NewExactLeverage(a).Scores(d, solve)
		if err != nil {
			t.Fatal(err)
		}
		want, err := leverageScoresPerRow(a, d, solve)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := range got {
			if rel := math.Abs(got[i]-want[i]) / math.Abs(want[i]); rel > tol {
				t.Fatalf("trial %d (m=%d n=%d κ=%.1e): σ[%d] = %v, per-row %v (rel %.2e > %.2e)",
					trial, m, n, kappa, i, got[i], want[i], rel, tol)
			}
			sum += got[i]
		}
		if math.Abs(sum-float64(n)) > tol*float64(n) {
			t.Fatalf("trial %d (κ=%.1e): Σσ = %v, want %d", trial, kappa, sum, n)
		}
	}
	if compared < 30 {
		t.Fatalf("only %d of 40 trials had a factorizable Gram matrix", compared)
	}
	t.Logf("%d trials compared, %d of them at the 1e-10 tolerance", compared, atFloor)
}

func TestLeverageScoresApproxVsExact(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	m, n := 40, 5
	a := buildTallMatrix(m, n, rnd)
	d := make([]float64, m)
	for i := range d {
		d[i] = 0.5 + rnd.Float64()
	}
	gram := linalg.NewGramFactor(a)
	if !gram.Factor(squares(d)) {
		t.Fatal("Gram matrix is not positive definite")
	}
	solve := gram.Solve
	exact, err := NewExactLeverage(a).Scores(d, solve)
	if err != nil {
		t.Fatal(err)
	}
	eta := 0.5
	sk, err := NewKaneNelson(957, m, 0, 2024) // ⌈4·ln(m+2)/(η/4)²⌉ rows
	if err != nil {
		t.Fatal(err)
	}
	approx, err := LeverageScoresApprox(a, d, solve, sk)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for i := range exact {
		if exact[i] < 1e-6 {
			continue
		}
		r := approx[i] / exact[i]
		if r < 1-eta || r > 1+eta {
			bad++
		}
	}
	if bad > m/10 {
		t.Fatalf("%d/%d leverage scores outside (1±%v)", bad, m, eta)
	}
}

// squares returns d², the diagonal of the Gram matrix of diag(d)·A.
func squares(d []float64) []float64 {
	d2 := make([]float64, len(d))
	for i, di := range d {
		d2[i] = di * di
	}
	return d2
}
