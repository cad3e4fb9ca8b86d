package optimize

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1)
	}
	res, err := NelderMead(f, []float64{0, 0}, nil)
	if err != nil {
		t.Fatalf("NelderMead: %v", err)
	}
	if !res.Converged {
		t.Errorf("did not converge in %d iterations", res.Iterations)
	}
	if math.Abs(res.X[0]-3) > 1e-5 || math.Abs(res.X[1]+1) > 1e-5 {
		t.Errorf("min at %v, want (3, -1)", res.X)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res, err := NelderMead(f, []float64{-1.2, 1}, &NelderMeadConfig{MaxIter: 5000})
	if err != nil {
		t.Fatalf("NelderMead: %v", err)
	}
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]-1) > 1e-4 {
		t.Errorf("min at %v (f=%v), want (1, 1)", res.X, res.F)
	}
}

func TestNelderMeadHandlesInfeasibleRegion(t *testing.T) {
	// Objective is +Inf for x < 0; minimum at x = 2 within feasible region.
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.Inf(1)
		}
		return (x[0] - 2) * (x[0] - 2)
	}
	res, err := NelderMead(f, []float64{5}, nil)
	if err != nil {
		t.Fatalf("NelderMead: %v", err)
	}
	if math.Abs(res.X[0]-2) > 1e-5 {
		t.Errorf("min at %v, want 2", res.X[0])
	}
}

func TestNelderMeadEmptyStart(t *testing.T) {
	if _, err := NelderMead(func([]float64) float64 { return 0 }, nil, nil); err == nil {
		t.Fatal("empty start: want error")
	}
}

// Property: Nelder-Mead finds the vertex of a random positive-definite
// quadratic in 2D.
func TestQuickNelderMeadQuadratics(t *testing.T) {
	f := func(cx, cy float64, seedA uint8) bool {
		// Keep centers in a modest range.
		cx = math.Mod(cx, 5)
		cy = math.Mod(cy, 5)
		if math.IsNaN(cx) || math.IsNaN(cy) {
			return true
		}
		a := 1 + float64(seedA%7) // curvature in [1, 7]
		obj := func(x []float64) float64 {
			return a*(x[0]-cx)*(x[0]-cx) + (x[1]-cy)*(x[1]-cy)
		}
		res, err := NelderMead(obj, []float64{0, 0}, &NelderMeadConfig{MaxIter: 3000})
		if err != nil {
			return false
		}
		return math.Abs(res.X[0]-cx) < 1e-4 && math.Abs(res.X[1]-cy) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
