// Package gp implements Gaussian-process regression with the squared
// exponential kernel — the statistical model the paper's Bayesian optimizer
// builds per objective (§III-B: "the widely-used squared exponential (SE)
// kernel is used due to its simplicity").
package gp

import (
	"fmt"
	"math"
)

// Kernel is a positive-definite covariance function.
type Kernel interface {
	Eval(a, b []float64) float64
}

// SE is the squared exponential (RBF) kernel
// k(a,b) = Variance · exp(-½ Σ ((aᵢ-bᵢ)/LengthScale)²).
type SE struct {
	Variance    float64
	LengthScale float64
}

// Eval computes the kernel value.
func (k SE) Eval(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("gp: kernel input dims %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		d := (a[i] - b[i]) / k.LengthScale
		s += d * d
	}
	return k.Variance * math.Exp(-0.5*s)
}

// GP is a fitted Gaussian-process posterior over one or more outputs that
// share training inputs, kernel and noise. They then share the covariance,
// its Cholesky factor, the kernel vector at a query and the forward solve
// for the variance; only alpha differs per output.
type GP struct {
	kernel Kernel
	noise  float64
	x      [][]float64
	l      [][]float64 // Cholesky factor of K + noise·I
	alpha  [][]float64 // alpha[j] = (K + noise·I)⁻¹ y_j
}

// jitterSchedule holds the escalating diagonal jitter magnitudes tried when
// an initial Cholesky factorization fails: each is added to the covariance
// diagonal (scaled by its mean magnitude) and the factorization retried. A
// factorization that succeeds without jitter is never perturbed, so
// well-conditioned fits stay bitwise identical to the unguarded path.
var jitterSchedule = []float64{1e-10, 1e-8, 1e-6, 1e-4}

// Fit conditions a GP on observations (X, y). noise is the observation
// noise variance added to the kernel diagonal; it must be positive to keep
// the system well conditioned. Targets must be finite. If the covariance is
// numerically indefinite (near-duplicate inputs, extreme length scales), Fit
// escalates through a small diagonal-jitter schedule before giving up. Fit
// is FitMulti with one output.
func Fit(x [][]float64, y []float64, kernel Kernel, noise float64) (*GP, error) {
	return FitMulti(x, [][]float64{y}, kernel, noise)
}

// FitMulti conditions one GP per target vector ys[j] on the shared inputs X,
// factoring the covariance once. Each output's posterior is bitwise
// identical to Fit(x, ys[j], kernel, noise).
func FitMulti(x [][]float64, ys [][]float64, kernel Kernel, noise float64) (*GP, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("gp: no training points")
	}
	if noise <= 0 {
		return nil, fmt.Errorf("gp: noise variance must be positive, got %g", noise)
	}
	for _, y := range ys {
		if len(y) != n {
			return nil, fmt.Errorf("gp: %d inputs but %d targets", n, len(y))
		}
		for i, yi := range y {
			if math.IsNaN(yi) || math.IsInf(yi, 0) {
				return nil, fmt.Errorf("gp: target %d is non-finite (%g)", i, yi)
			}
		}
	}
	k := make([][]float64, n)
	meanDiag := 0.0
	for i := range k {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := kernel.Eval(x[i], x[j])
			k[i][j] = v
			k[j][i] = v
		}
		k[i][i] += noise
		meanDiag += k[i][i]
	}
	meanDiag /= float64(n)
	l, err := Cholesky(k)
	for _, jitter := range jitterSchedule {
		if err == nil {
			break
		}
		eps := jitter * meanDiag
		for i := 0; i < n; i++ {
			k[i][i] += eps
		}
		l, err = Cholesky(k)
	}
	if err != nil {
		return nil, fmt.Errorf("gp: covariance not positive definite: %w", err)
	}
	alpha := make([][]float64, len(ys))
	for j, y := range ys {
		alpha[j] = SolveCholesky(l, y)
	}
	xs := make([][]float64, n)
	for i, xi := range x {
		xs[i] = append([]float64(nil), xi...)
	}
	return &GP{kernel: kernel, noise: noise, x: xs, l: l, alpha: alpha}, nil
}

// Predict returns the posterior mean and variance of a single-output GP at
// a query point. The variance is the latent-function variance (it excludes
// observation noise) and is clamped at zero against round-off.
func (g *GP) Predict(q []float64) (mean, variance float64) {
	var m [1]float64
	variance = g.PredictInto(q, m[:], make([]float64, len(g.x)))
	return m[0], variance
}

// PredictInto writes every output's posterior mean at q into means (one
// per output) and returns the shared latent variance, clamped at zero. buf
// is caller-owned scratch of at least one float per training point, so a
// caller that reuses means and buf predicts without allocating.
func (g *GP) PredictInto(q []float64, means, buf []float64) (variance float64) {
	if len(means) != len(g.alpha) {
		panic(fmt.Sprintf("gp: %d means for %d outputs", len(means), len(g.alpha)))
	}
	ks := buf[:len(g.x)]
	for i := range ks {
		ks[i] = g.kernel.Eval(g.x[i], q)
	}
	for j, alpha := range g.alpha {
		mean := 0.0
		for i := range ks {
			mean += ks[i] * alpha[i]
		}
		means[j] = mean
	}
	forwardSolve(g.l, ks)
	variance = g.kernel.Eval(q, q)
	for _, vi := range ks {
		variance -= vi * vi
	}
	if variance < 0 {
		variance = 0
	}
	return variance
}

// Block is how many queries PredictBlock serves at once. The block kernels
// unroll it by hand, four chains each.
const Block = 4

// PredictBlock is PredictInto for Block queries at once: means[t] receives
// query qs[t]'s per-output means and the returned array holds the Block
// latent variances. buf is caller-owned scratch of at least one entry per
// training point. Every training input, alpha entry and Cholesky row is
// loaded once and feeds Block independent accumulation chains, one per
// query, each summing in PredictInto's order — so every mean and variance is
// bitwise equal to a PredictInto call on that query alone.
func (g *GP) PredictBlock(qs [Block][]float64, means [Block][]float64, buf [][Block]float64) (variances [Block]float64) {
	for _, m := range means {
		if len(m) != len(g.alpha) {
			panic(fmt.Sprintf("gp: %d means for %d outputs", len(m), len(g.alpha)))
		}
	}
	ks := buf[:len(g.x)] // ks[i][t] = k(x_i, q_t)
	if se, ok := g.kernel.(SE); ok {
		se.evalBlock(g.x, qs, ks)
	} else {
		for i, xi := range g.x {
			for t, q := range qs {
				ks[i][t] = g.kernel.Eval(xi, q)
			}
		}
	}
	for j, alpha := range g.alpha {
		var m0, m1, m2, m3 float64
		for i, a := range alpha[:len(ks)] {
			k := &ks[i]
			m0 += k[0] * a
			m1 += k[1] * a
			m2 += k[2] * a
			m3 += k[3] * a
		}
		means[0][j], means[1][j], means[2][j], means[3][j] = m0, m1, m2, m3
	}
	forwardSolveBlock(g.l, ks)
	for t, q := range qs {
		variances[t] = g.kernel.Eval(q, q)
	}
	v0, v1, v2, v3 := variances[0], variances[1], variances[2], variances[3]
	for i := range ks {
		v := &ks[i]
		v0 -= v[0] * v[0]
		v1 -= v[1] * v[1]
		v2 -= v[2] * v[2]
		v3 -= v[3] * v[3]
	}
	variances = [Block]float64{v0, v1, v2, v3}
	for t, v := range variances {
		if v < 0 {
			variances[t] = 0
		}
	}
	return variances
}

// evalBlock writes ks[i][t] = k.Eval(xs[i], qs[t]), each value computed in
// Eval's order, loading every training input once for all Block queries.
func (k SE) evalBlock(xs [][]float64, qs [Block][]float64, ks [][Block]float64) {
	d := len(xs[0])
	for _, q := range qs {
		if len(q) != d {
			panic(fmt.Sprintf("gp: kernel input dims %d vs %d", d, len(q)))
		}
	}
	q0, q1, q2, q3 := qs[0][:d], qs[1][:d], qs[2][:d], qs[3][:d]
	for i, x := range xs[:len(ks)] {
		var s0, s1, s2, s3 float64
		for f, xf := range x[:d] {
			d0 := (xf - q0[f]) / k.LengthScale
			d1 := (xf - q1[f]) / k.LengthScale
			d2 := (xf - q2[f]) / k.LengthScale
			d3 := (xf - q3[f]) / k.LengthScale
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		ks[i] = [Block]float64{
			k.Variance * math.Exp(-0.5*s0),
			k.Variance * math.Exp(-0.5*s1),
			k.Variance * math.Exp(-0.5*s2),
			k.Variance * math.Exp(-0.5*s3),
		}
	}
}

// LogMarginalLikelihood returns a single-output GP's log marginal
// likelihood log p(y | X, θ) = -½ yᵀα - Σ log Lᵢᵢ - (n/2) log 2π, used to
// select kernel hyper-parameters.
func (g *GP) LogMarginalLikelihood(y []float64) float64 {
	n := len(g.x)
	if len(y) != n {
		panic(fmt.Sprintf("gp: %d targets for %d training points", len(y), n))
	}
	ll := 0.0
	for i := range y {
		ll -= 0.5 * y[i] * g.alpha[0][i]
	}
	for i := 0; i < n; i++ {
		ll -= math.Log(g.l[i][i])
	}
	ll -= float64(n) / 2 * math.Log(2*math.Pi)
	return ll
}

// SelectLengthScale fits one GP per candidate length scale and returns the
// scale maximizing the log marginal likelihood — the standard type-II
// maximum-likelihood model selection, over a grid because the spaces here
// are small.
func SelectLengthScale(x [][]float64, y []float64, variance, noise float64, scales []float64) (float64, error) {
	if len(scales) == 0 {
		return 0, fmt.Errorf("gp: no candidate length scales")
	}
	best, bestLL := scales[0], math.Inf(-1)
	for _, s := range scales {
		if s <= 0 {
			return 0, fmt.Errorf("gp: non-positive length scale %g", s)
		}
		m, err := Fit(x, y, SE{Variance: variance, LengthScale: s}, noise)
		if err != nil {
			continue // ill-conditioned at this scale; skip
		}
		if ll := m.LogMarginalLikelihood(y); ll > bestLL {
			best, bestLL = s, ll
		}
	}
	if math.IsInf(bestLL, -1) {
		return 0, fmt.Errorf("gp: no length scale produced a valid fit")
	}
	return best, nil
}

// Cholesky returns the lower-triangular factor L with A = L·Lᵀ, or an error
// if A is not positive definite.
func Cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for p := 0; p < j; p++ {
				sum -= l[i][p] * l[j][p]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("gp: pivot %d is %g", i, sum)
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// SolveCholesky solves (L·Lᵀ)·x = b given the Cholesky factor L.
func SolveCholesky(l [][]float64, b []float64) []float64 {
	y := append([]float64(nil), b...)
	forwardSolve(l, y)
	return backSolve(l, y)
}

// forwardSolve overwrites b with the solution y of L·y = b.
func forwardSolve(l [][]float64, b []float64) {
	for i := range b {
		row, s := l[i][:i+1], b[i]
		for j, y := range b[:i] {
			s -= row[j] * y
		}
		b[i] = s / row[i]
	}
}

// forwardSolveBlock is forwardSolve for Block right-hand sides at once
// (b[i][t] is entry i of system t): each L row is loaded once and drives
// Block independent substitution chains, each in forwardSolve's order.
func forwardSolveBlock(l [][]float64, b [][Block]float64) {
	for i := range b {
		done, row := b[:i], l[i][:i+1]
		s0, s1, s2, s3 := b[i][0], b[i][1], b[i][2], b[i][3]
		for j, r := range row[:len(done)] {
			p := &done[j]
			s0 -= r * p[0]
			s1 -= r * p[1]
			s2 -= r * p[2]
			s3 -= r * p[3]
		}
		d := row[i]
		b[i] = [Block]float64{s0 / d, s1 / d, s2 / d, s3 / d}
	}
}

func backSolve(l [][]float64, y []float64) []float64 {
	n := len(y)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= l[j][i] * x[j]
		}
		x[i] = s / l[i][i]
	}
	return x
}
