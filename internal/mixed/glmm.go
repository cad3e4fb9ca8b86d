package mixed

import (
	"context"
	"fmt"
	"math"

	"decompstudy/internal/linalg"
	"decompstudy/internal/obs"
	"decompstudy/internal/optimize"
	"decompstudy/internal/stats"
)

// glmmState carries the working vectors of the Laplace/PIRLS fit so the
// outer variance search can reuse the previous conditional modes as warm
// starts, plus a workspace of per-iteration buffers: the variance search
// calls pirls hundreds of times, so the (p+q)×(p+q) Hessian, its Cholesky
// factor, the gradient and the trial vector are allocated once here. The
// Wald covariance is not part of a pirls call: covBeta computes it once,
// from the factor the final evaluation leaves in chol.
type glmmState struct {
	d *design
	u []float64 // joint (β, b) vector, length p+q
	// ctx carries the obs handle so the inner PIRLS loop can report
	// iteration telemetry (nil-safe; zero cost when telemetry is off).
	ctx context.Context

	lastBeta    []float64
	lastBLUP    []float64
	lastCovBeta []float64 // diagonal of the β block of H⁻¹, set by covBeta
	lastBad     bool

	// PIRLS scratch, sized once in newGLMMState.
	eta, mu, w        []float64 // length n
	grad, step, trial []float64 // length p+q
	dInv              []float64 // length q, filled by the objective closure
	h, hbb            *linalg.Matrix
	chol, hbbChol     *linalg.Cholesky
	colBuf            []float64 // length p+q, covBeta's solve column
}

func newGLMMState(ctx context.Context, d *design) *glmmState {
	dim := d.p + d.q
	return &glmmState{
		d:       d,
		u:       make([]float64, dim),
		ctx:     ctx,
		eta:     make([]float64, d.n),
		mu:      make([]float64, d.n),
		w:       make([]float64, d.n),
		grad:    make([]float64, dim),
		step:    make([]float64, dim),
		trial:   make([]float64, dim),
		dInv:    make([]float64, d.q),
		h:       linalg.NewMatrix(dim, dim),
		hbb:     linalg.NewMatrix(d.q, d.q),
		chol:    linalg.NewCholeskyWorkspace(dim),
		hbbChol: linalg.NewCholeskyWorkspace(d.q),
		colBuf:  make([]float64, dim),
	}
}

// pirls runs penalized iteratively reweighted least squares at fixed
// variance parameters, jointly maximizing over (β, b). dInv is the per-Z-
// column prior precision 1/σ²_factor. It returns the Laplace deviance.
func (g *glmmState) pirls(dInv []float64) float64 {
	d := g.d
	p, q := d.p, d.q
	dim := p + q
	y := d.spec.Response

	eta, mu, w := g.eta, g.mu, g.w

	// penalized log-likelihood at the current u.
	pll := func(u []float64) float64 {
		ll := 0.0
		for i := 0; i < d.n; i++ {
			e := 0.0
			for j, x := range d.spec.Fixed.RowView(i) {
				e += x * u[j]
			}
			for _, c := range d.zCols(i) {
				e += u[p+c]
			}
			// y·η − log(1+exp(η)), computed stably.
			ll += y[i]*e - log1pExp(e)
		}
		for c := 0; c < q; c++ {
			ll -= 0.5 * dInv[c] * u[p+c] * u[p+c]
		}
		return ll
	}

	u := g.u
	cur := pll(u)
	haveChol := false
	converged := false
	iters := 0
	defer func() {
		obs.AddCount(g.ctx, "mixed.glmm.pirls_evals", 1)
		obs.AddCount(g.ctx, "mixed.glmm.pirls_iterations", int64(iters))
	}()
	for iter := 0; iter < 100; iter++ {
		iters = iter + 1
		// Linear predictor, mean, weights.
		for i := 0; i < d.n; i++ {
			e := 0.0
			for j, x := range d.spec.Fixed.RowView(i) {
				e += x * u[j]
			}
			for _, c := range d.zCols(i) {
				e += u[p+c]
			}
			eta[i] = e
			mu[i] = stats.LogisticCDF(e)
			w[i] = mu[i] * (1 - mu[i])
			if w[i] < 1e-10 {
				w[i] = 1e-10
			}
		}

		// Gradient = [X Z]ᵀ(y−μ) − [0; D⁻¹ b].
		grad := g.grad
		for j := range grad {
			grad[j] = 0
		}
		for i := 0; i < d.n; i++ {
			r := y[i] - mu[i]
			for j, x := range d.spec.Fixed.RowView(i) {
				grad[j] += x * r
			}
			for _, c := range d.zCols(i) {
				grad[p+c] += r
			}
		}
		for c := 0; c < q; c++ {
			grad[p+c] -= dInv[c] * u[p+c]
		}

		// Hessian = [X Z]ᵀW[X Z] + blkdiag(0, D⁻¹).
		h := g.h
		h.Zero()
		for i := 0; i < d.n; i++ {
			wi := w[i]
			cols := d.zCols(i)
			x := d.spec.Fixed.RowView(i)
			for a, xa := range x {
				if xa == 0 {
					continue
				}
				ha := h.RowView(a)
				for b := a; b < p; b++ {
					ha[b] += wi * xa * x[b]
				}
				for _, c := range cols {
					ha[p+c] += wi * xa
				}
			}
			for ai, ca := range cols {
				for _, cb := range cols[ai:] {
					lo, hi := p+ca, p+cb
					if lo > hi {
						lo, hi = hi, lo
					}
					h.RowView(lo)[hi] += wi
				}
			}
		}
		for c := 0; c < q; c++ {
			h.RowView(p + c)[p+c] += dInv[c]
		}
		// Mirror the upper triangle.
		for a := 0; a < dim; a++ {
			ha := h.RowView(a)
			for b := range ha[:a] {
				ha[b] = h.RowView(b)[a]
			}
		}

		if err := g.chol.Refactor(h); err != nil {
			g.lastBad = true
			return math.Inf(1)
		}
		haveChol = true
		step := g.step
		if err := g.chol.SolveVecTo(step, grad); err != nil {
			g.lastBad = true
			return math.Inf(1)
		}

		// Line search with step halving on the penalized log-likelihood.
		improved := false
		trial := g.trial
		for scale := 1.0; scale > 1e-4; scale /= 2 {
			for j := range u {
				trial[j] = u[j] + scale*step[j]
			}
			if cand := pll(trial); cand > cur-1e-12 {
				stepNorm := linalg.Norm2(step) * scale
				copy(u, trial)
				improved = cand > cur
				cur = cand
				if stepNorm < 1e-9 {
					converged = true
				}
				break
			}
		}
		if converged || !improved {
			break
		}
	}
	if !haveChol {
		g.lastBad = true
		return math.Inf(1)
	}

	// Laplace deviance needs the b-block Hessian H_bb = ZᵀWZ + D⁻¹ at the
	// optimum; recompute weights at the final u.
	for i := 0; i < d.n; i++ {
		e := 0.0
		for j, x := range d.spec.Fixed.RowView(i) {
			e += x * u[j]
		}
		for _, c := range d.zCols(i) {
			e += u[p+c]
		}
		mu[i] = stats.LogisticCDF(e)
		w[i] = mu[i] * (1 - mu[i])
	}
	hbb := g.hbb
	hbb.Zero()
	for i := 0; i < d.n; i++ {
		cols := d.zCols(i)
		for _, a := range cols {
			for _, b := range cols {
				hbb.Add(a, b, w[i])
			}
		}
	}
	for c := 0; c < q; c++ {
		hbb.Add(c, c, dInv[c])
	}
	if err := g.hbbChol.Refactor(hbb); err != nil {
		g.lastBad = true
		return math.Inf(1)
	}
	logDetD := 0.0
	for c := 0; c < q; c++ {
		logDetD -= math.Log(dInv[c]) // log σ²_c
	}
	logLik := cur - 0.5*(g.hbbChol.LogDet()+logDetD)

	// Stash β and BLUPs; chol keeps the last Newton step's factor for
	// covBeta.
	g.lastBeta = append(g.lastBeta[:0], u[:p]...)
	g.lastBLUP = append(g.lastBLUP[:0], u[p:]...)
	g.lastBad = false
	return -2 * logLik
}

// covBeta fills lastCovBeta with the diagonal of the β block of H⁻¹, the
// Wald covariance, from the full-Hessian factor the last pirls call left in
// chol. Column j of H⁻¹ is the solve against the j-th unit vector, so
// solving only the p β columns gives those entries the bits a full
// InverseTo would.
func (g *glmmState) covBeta() error {
	col := g.colBuf
	g.lastCovBeta = g.lastCovBeta[:0]
	for j := 0; j < g.d.p; j++ {
		for i := range col {
			col[i] = 0
		}
		col[j] = 1
		if err := g.chol.SolveVecTo(col, col); err != nil {
			return err
		}
		g.lastCovBeta = append(g.lastCovBeta, col[j])
	}
	return nil
}

// log1pExp computes log(1+e^x) without overflow.
func log1pExp(x float64) float64 {
	if x > 35 {
		return x
	}
	if x < -35 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}

// FitGLMMLogit fits a logistic mixed model with random intercepts using the
// Laplace approximation, matching R's glmer(..., family=binomial) for the
// models in the paper. spec.REML is ignored (GLMMs are always fit by ML).
func FitGLMMLogit(spec *Spec) (*Result, error) {
	return FitGLMMLogitCtx(context.Background(), spec)
}

// FitGLMMLogitCtx is FitGLMMLogit with telemetry: a mixed.FitGLMMLogit span
// plus outer-search iteration counts, inner PIRLS iteration counts, and a
// convergence gauge.
func FitGLMMLogitCtx(ctx context.Context, spec *Spec) (*Result, error) {
	res, _, err := fitGLMM(ctx, spec)
	return res, err
}

// fitGLMM is FitGLMMLogitCtx that also returns the PIRLS workspace as the
// final evaluation at the optimum left it.
func fitGLMM(ctx context.Context, spec *Spec) (*Result, *glmmState, error) {
	_, sp := obs.StartSpan(ctx, "mixed.FitGLMMLogit")
	defer sp.End()
	if err := spec.validate(); err != nil {
		return nil, nil, err
	}
	for i, y := range spec.Response {
		if y != 0 && y != 1 {
			return nil, nil, fmt.Errorf("mixed: logistic response[%d] = %v, want 0 or 1: %w", i, y, ErrSpec)
		}
	}
	sp.SetAttr("n", len(spec.Response))
	d := newDesign(spec)
	st := newGLMMState(ctx, d)

	obj := func(logSD []float64) float64 {
		dInv := st.dInv
		for c := 0; c < d.q; c++ {
			sd := math.Exp(logSD[d.colFac[c]])
			if sd < 1e-6 {
				sd = 1e-6
			}
			dInv[c] = 1 / (sd * sd)
		}
		return st.pirls(dInv)
	}

	start := make([]float64, len(spec.Random)) // σ = 1 per factor
	res, err := optimize.NelderMead(obj, start, &optimize.NelderMeadConfig{
		MaxIter: 800, TolF: 1e-8, TolX: 1e-5, Step: 0.7,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("mixed: GLMM variance search: %w", err)
	}
	recordFitTelemetry(ctx, sp, "mixed.glmm", res)
	dev := obj(res.X)
	if st.lastBad || math.IsInf(dev, 1) {
		return nil, nil, fmt.Errorf("mixed: GLMM evaluation failed at optimum: %w", ErrFit)
	}
	if err := st.covBeta(); err != nil {
		return nil, nil, fmt.Errorf("mixed: GLMM covariance at optimum: %w", err)
	}

	randSD := make([]VarComp, len(spec.Random))
	sumRandVar := 0.0
	for k, rf := range spec.Random {
		sd := math.Exp(res.X[k])
		if sd < 1e-6 {
			sd = 0
		}
		randSD[k] = VarComp{Name: rf.Name, StdDev: sd}
		sumRandVar += sd * sd
	}
	blups := make([][]float64, len(spec.Random))
	for k, rf := range spec.Random {
		blups[k] = append([]float64(nil), st.lastBLUP[d.offsets[k]:d.offsets[k]+rf.NLevels]...)
	}

	varF := fixedEffectVariance(d, st.lastBeta)
	const logitResidVar = math.Pi * math.Pi / 3
	total := varF + sumRandVar + logitResidVar
	df := float64(d.p + len(spec.Random))
	n := float64(d.n)
	nGroups := make([]int, len(spec.Random))
	for k, rf := range spec.Random {
		nGroups[k] = rf.NLevels
	}
	return &Result{
		Kind:          "glmer (binomial)",
		Fixed:         waldFixed(spec.FixedNames, st.lastBeta, st.lastCovBeta),
		Random:        randSD,
		LogLik:        -dev / 2,
		Deviance:      dev,
		AIC:           dev + 2*df,
		BIC:           dev + math.Log(n)*df,
		R2Marginal:    varF / total,
		R2Conditional: (varF + sumRandVar) / total,
		NObs:          d.n,
		NGroups:       nGroups,
		Converged:     res.Converged,
		BLUPs:         blups,
	}, st, nil
}
