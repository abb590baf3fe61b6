package lp

import (
	"math"
	"math/rand"
	"testing"

	"bcclap/internal/linalg"
	"bcclap/internal/sim"
)

// bruteForceMixedBall grids over the ∞-budget t and all clamp prefixes,
// constructing feasible candidates directly.
func bruteForceMixedBall(a, l []float64, grid int) float64 {
	m := len(a)
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	// Sort by ratio descending.
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if math.Abs(a[order[j]])*l[order[i]] > math.Abs(a[order[i]])*l[order[j]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	best := 0.0
	for g := 0; g <= grid; g++ {
		t := float64(g) / float64(grid+1)
		for c := 0; c <= m; c++ {
			x := make([]float64, m)
			var clampNorm2 float64
			for j := 0; j < c; j++ {
				idx := order[j]
				x[idx] = t * l[idx] * sign(a[idx])
				clampNorm2 += x[idx] * x[idx]
			}
			budget := (1 - t) * (1 - t)
			rest := budget - clampNorm2
			if rest < 0 {
				continue
			}
			var restA float64
			for j := c; j < m; j++ {
				restA += a[order[j]] * a[order[j]]
			}
			if restA > 0 {
				lam := math.Sqrt(rest) / math.Sqrt(restA)
				feas := true
				for j := c; j < m; j++ {
					idx := order[j]
					x[idx] = lam * a[idx]
					if math.Abs(x[idx]) > t*l[idx]+1e-12 {
						feas = false
					}
				}
				if !feas {
					continue
				}
			}
			if MixedBallFeasible(x, l, 1e-9) {
				if v := linalg.Dot(a, x); v > best {
					best = v
				}
			}
		}
	}
	return best
}

func TestProjectMixedBallAgainstBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rnd.Intn(12)
		a := make([]float64, m)
		l := make([]float64, m)
		for i := range a {
			a[i] = rnd.NormFloat64()
			l[i] = 0.1 + 3*rnd.Float64()
		}
		x := ProjectMixedBall(a, l, nil)
		if !MixedBallFeasible(x, l, 1e-9) {
			t.Fatalf("trial %d: infeasible projection", trial)
		}
		got := linalg.Dot(a, x)
		want := bruteForceMixedBall(a, l, 400)
		if got < want-1e-3*(1+math.Abs(want)) {
			t.Fatalf("trial %d: value %v below brute force %v", trial, got, want)
		}
	}
}

func TestProjectMixedBallZeroInput(t *testing.T) {
	x := ProjectMixedBall([]float64{0, 0}, []float64{1, 1}, nil)
	if linalg.Norm2(x) != 0 {
		t.Fatal("zero objective should give zero point")
	}
}

func TestProjectMixedBallSingleCoordinate(t *testing.T) {
	// One coordinate: max a·x s.t. |x|(1 + 1/l) ≤ ... optimum is
	// x = 1/(1 + 1/l) for a > 0.
	a, l := []float64{2.0}, []float64{0.5}
	x := ProjectMixedBall(a, l, nil)
	want := 1 / (1 + 1/l[0])
	if math.Abs(x[0]-want) > 1e-6 {
		t.Fatalf("x = %v, want %v", x[0], want)
	}
}

func TestProjectMixedBallLargeL(t *testing.T) {
	// Huge l makes the ∞ constraint inactive: solution is a/‖a‖.
	a := []float64{3, 4}
	l := []float64{1e9, 1e9}
	x := ProjectMixedBall(a, l, nil)
	if math.Abs(x[0]-0.6) > 1e-6 || math.Abs(x[1]-0.8) > 1e-6 {
		t.Fatalf("x = %v, want (0.6, 0.8)", x)
	}
}

func TestProjectMixedBallChargesRounds(t *testing.T) {
	const m = 2048
	net, err := sim.NewNetwork(m)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(9))
	a := make([]float64, m)
	l := make([]float64, m)
	for i := range a {
		a[i] = rnd.NormFloat64()
		l[i] = 0.5 + rnd.Float64()
	}
	ProjectMixedBall(a, l, net)
	if net.Rounds() == 0 {
		t.Fatal("projection charged no rounds")
	}
	// O(log m) aggregate phases of O(1) rounds each. The naive approach
	// spends one phase per coordinate, and every phase costs at least one
	// round, so m rounds is a floor the naive cost never goes below (e7
	// prints its exact cost: m times the rounds of one phase).
	if net.Rounds() >= m {
		t.Fatalf("projection charged %d rounds — looks linear in m", net.Rounds())
	}
	// The exact charge: one aggregate phase of m broadcasts per search
	// evaluation.
	if got, want := net.Stats(), (sim.Stats{Rounds: 212, Messages: 108544, Bits: 16932864}); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}
