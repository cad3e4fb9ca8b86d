// Package optimize provides the derivative-free optimizer used to fit the
// mixed-effects models in this project: Nelder-Mead simplex minimization
// for low-dimensional variance-parameter searches.
package optimize

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoProgress is returned when an optimizer cannot improve the objective
// beyond its tolerance within the iteration budget.
var ErrNoProgress = errors.New("optimize: no progress within iteration budget")

// Objective is a function to be minimized.
type Objective func(x []float64) float64

// Result reports the outcome of a minimization.
type Result struct {
	// X is the best point found.
	X []float64
	// F is the objective value at X.
	F float64
	// Iterations is the number of iterations performed.
	Iterations int
	// Converged reports whether the tolerance was met before the budget ran
	// out.
	Converged bool
}

// NelderMeadConfig controls the simplex search.
type NelderMeadConfig struct {
	// MaxIter bounds the number of simplex iterations. Zero means 1000.
	MaxIter int
	// TolF is the convergence tolerance on the spread of objective values
	// across the simplex. Zero means 1e-10.
	TolF float64
	// TolX is the convergence tolerance on the simplex diameter. Zero means
	// 1e-8.
	TolX float64
	// Step is the initial simplex edge length. Zero means 0.5.
	Step float64
}

func (c *NelderMeadConfig) defaults() NelderMeadConfig {
	out := NelderMeadConfig{MaxIter: 1000, TolF: 1e-10, TolX: 1e-8, Step: 0.5}
	if c == nil {
		return out
	}
	if c.MaxIter > 0 {
		out.MaxIter = c.MaxIter
	}
	if c.TolF > 0 {
		out.TolF = c.TolF
	}
	if c.TolX > 0 {
		out.TolX = c.TolX
	}
	if c.Step > 0 {
		out.Step = c.Step
	}
	return out
}

type vertex struct {
	x []float64
	f float64
}

// NelderMead minimizes f starting from x0 using the Nelder-Mead simplex
// method with standard reflection/expansion/contraction/shrink coefficients.
// Non-finite objective values are treated as +Inf, so the search simply
// avoids infeasible regions.
func NelderMead(f Objective, x0 []float64, cfg *NelderMeadConfig) (Result, error) {
	if len(x0) == 0 {
		return Result{}, fmt.Errorf("optimize: empty starting point")
	}
	c := cfg.defaults()
	n := len(x0)
	eval := func(x []float64) float64 {
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	// Build initial simplex.
	simplex := make([]vertex, n+1)
	base := append([]float64(nil), x0...)
	simplex[0] = vertex{x: base, f: eval(base)}
	for i := 0; i < n; i++ {
		x := append([]float64(nil), x0...)
		step := c.Step
		if x[i] != 0 {
			step = c.Step * math.Abs(x[i])
		}
		x[i] += step
		simplex[i+1] = vertex{x: x, f: eval(x)}
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	var iter int
	for iter = 0; iter < c.MaxIter; iter++ {
		sort.Slice(simplex, func(a, b int) bool { return simplex[a].f < simplex[b].f })
		best, worst := simplex[0], simplex[n]

		// Convergence tests.
		fSpread := math.Abs(worst.f - best.f)
		xSpread := 0.0
		for i := 1; i <= n; i++ {
			for j := 0; j < n; j++ {
				if d := math.Abs(simplex[i].x[j] - simplex[0].x[j]); d > xSpread {
					xSpread = d
				}
			}
		}
		if fSpread < c.TolF && xSpread < c.TolX {
			return Result{X: best.x, F: best.f, Iterations: iter, Converged: true}, nil
		}

		// Centroid of all but worst.
		centroid := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				centroid[j] += simplex[i].x[j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(n)
		}

		lerp := func(t float64) []float64 {
			x := make([]float64, n)
			for j := 0; j < n; j++ {
				x[j] = centroid[j] + t*(centroid[j]-worst.x[j])
			}
			return x
		}

		reflected := lerp(alpha)
		fr := eval(reflected)
		switch {
		case fr < best.f:
			expanded := lerp(gamma)
			if fe := eval(expanded); fe < fr {
				simplex[n] = vertex{x: expanded, f: fe}
			} else {
				simplex[n] = vertex{x: reflected, f: fr}
			}
		case fr < simplex[n-1].f:
			simplex[n] = vertex{x: reflected, f: fr}
		default:
			contracted := lerp(-rho)
			if fc := eval(contracted); fc < worst.f {
				simplex[n] = vertex{x: contracted, f: fc}
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						simplex[i].x[j] = best.x[j] + sigma*(simplex[i].x[j]-best.x[j])
					}
					simplex[i].f = eval(simplex[i].x)
				}
			}
		}
	}
	sort.Slice(simplex, func(a, b int) bool { return simplex[a].f < simplex[b].f })
	return Result{X: simplex[0].x, F: simplex[0].f, Iterations: iter, Converged: false}, nil
}
