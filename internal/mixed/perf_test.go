package mixed

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"decompstudy/internal/linalg"
)

// crossedSpec simulates the paper's model shape: a treatment indicator plus
// two crossed random intercepts (user, question).
func crossedSpec(binary bool) *Spec {
	rng := rand.New(rand.NewSource(7))
	const users, questions = 20, 8
	n := users * questions
	y := make([]float64, 0, n)
	uIdx := make([]int, 0, n)
	qIdx := make([]int, 0, n)
	fixed := linalg.NewMatrix(n, 2)
	i := 0
	for u := 0; u < users; u++ {
		ub := rng.NormFloat64() * 0.8
		for q := 0; q < questions; q++ {
			qb := float64(q%3-1) * 0.5
			treat := float64((u + q) % 2)
			eta := 0.3 + 0.9*treat + ub + qb
			if binary {
				p := 1 / (1 + math.Exp(-eta))
				if rng.Float64() < p {
					y = append(y, 1)
				} else {
					y = append(y, 0)
				}
			} else {
				y = append(y, eta+rng.NormFloat64()*0.6)
			}
			fixed.Set(i, 0, 1)
			fixed.Set(i, 1, treat)
			uIdx = append(uIdx, u)
			qIdx = append(qIdx, q)
			i++
		}
	}
	return &Spec{
		Response:   y,
		Fixed:      fixed,
		FixedNames: []string{"(Intercept)", "treat"},
		Random: []RandomFactor{
			{Name: "user", Index: uIdx, NLevels: users},
			{Name: "question", Index: qIdx, NLevels: questions},
		},
	}
}

// TestLMMEvalAllocFree pins the workspace contract of the profiled-deviance
// kernel: after the first evaluation, the Nelder-Mead search runs with zero
// allocations per step.
func TestLMMEvalAllocFree(t *testing.T) {
	spec := crossedSpec(false)
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	d := newDesign(spec)
	prof, err := newLMMProfile(d, false)
	if err != nil {
		t.Fatal(err)
	}
	pt := []float64{-0.1, -0.2}
	prof.eval(pt) // warm-up
	if prof.lastBad {
		t.Fatal("warm-up evaluation failed")
	}
	avg := testing.AllocsPerRun(50, func() { prof.eval(pt) })
	if avg != 0 {
		t.Errorf("lmmProfile.eval allocates %.1f per call, want 0", avg)
	}
}

// TestGLMMPirlsAllocBounded pins the PIRLS workspace: one call used to
// allocate a fresh Hessian, Cholesky factor, gradient, and trial vector per
// Newton step; with the workspace only the telemetry closure and warm-start
// bookkeeping remain.
func TestGLMMPirlsAllocBounded(t *testing.T) {
	spec := crossedSpec(true)
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	d := newDesign(spec)
	st := newGLMMState(context.Background(), d)
	dInv := make([]float64, d.q)
	for c := range dInv {
		dInv[c] = 1
	}
	st.pirls(dInv) // warm-up also sizes lastBeta/lastBLUP
	if st.lastBad {
		t.Fatal("warm-up PIRLS failed")
	}
	avg := testing.AllocsPerRun(20, func() { st.pirls(dInv) })
	// The deferred obs closure plus pll captures cost a few boxes per call;
	// the pre-rewrite kernel cost thousands (per-iteration Hessians).
	if avg > 8 {
		t.Errorf("pirls allocates %.1f per call, want <= 8", avg)
	}
}

// TestGLMMCovarianceAtOptimum pins the Wald covariance to the optimum:
// the fitted standard errors are, bit-for-bit, √diag of the β block of a
// dense inverse of the PIRLS Hessian the final evaluation assembled, and
// the evaluations of the variance search compute no covariance at all.
func TestGLMMCovarianceAtOptimum(t *testing.T) {
	spec := crossedSpec(true)
	res, st, err := fitGLMM(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := linalg.NewCholesky(st.h)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := ch.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fixed) != st.d.p {
		t.Fatalf("%d fixed effects, want %d", len(res.Fixed), st.d.p)
	}
	for j, fe := range res.Fixed {
		want := math.Sqrt(inv.At(j, j))
		if math.Float64bits(fe.StdErr) != math.Float64bits(want) {
			t.Errorf("%s: SE %v (bits %x), want √H⁻¹[%d][%d] = %v (bits %x)",
				fe.Name, fe.StdErr, math.Float64bits(fe.StdErr), j, j, want, math.Float64bits(want))
		}
	}

	search := newGLMMState(context.Background(), newDesign(spec))
	dInv := make([]float64, search.d.q)
	for _, prec := range []float64{1, 0.25, 4} {
		for c := range dInv {
			dInv[c] = prec
		}
		if dev := search.pirls(dInv); search.lastBad || math.IsInf(dev, 1) {
			t.Fatalf("pirls at precision %v failed", prec)
		}
		if len(search.lastCovBeta) != 0 {
			t.Fatalf("pirls at precision %v computed a covariance: %v", prec, search.lastCovBeta)
		}
	}
}

// TestLMMWorkspaceReuseMatchesFresh checks that evaluating at one point,
// then another, gives exactly the result of a fresh profile evaluated at
// the second point — the workspace carries no state across evaluations.
func TestLMMWorkspaceReuseMatchesFresh(t *testing.T) {
	spec := crossedSpec(false)
	d := newDesign(spec)
	reused, err := newLMMProfile(d, false)
	if err != nil {
		t.Fatal(err)
	}
	reused.eval([]float64{1.5, -2})
	got := reused.eval([]float64{-0.3, 0.4})

	fresh, err := newLMMProfile(newDesign(spec), false)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.eval([]float64{-0.3, 0.4})
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("reused deviance %v != fresh %v", got, want)
	}
	for j := range reused.lastResult.beta {
		if math.Float64bits(reused.lastResult.beta[j]) != math.Float64bits(fresh.lastResult.beta[j]) {
			t.Fatalf("beta[%d]: reused %v != fresh %v", j, reused.lastResult.beta[j], fresh.lastResult.beta[j])
		}
	}
}
