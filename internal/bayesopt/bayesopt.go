// Package bayesopt implements the paper's Phase-2 optimizer: multi-objective
// Bayesian optimization over a discrete design space with the
// S-Metric-Selection Efficient Global Optimization (SMS-EGO) acquisition
// function (§III-B). One Gaussian process is fit per objective — all
// objectives share one covariance factor — and candidates are scored by the
// hypervolume contribution of their lower-confidence-bound estimate over the
// current Pareto front, with a penalty for epsilon-dominated candidates.
// Scoring fans out over Problem.Workers; the pick is bitwise independent of
// the worker count.
package bayesopt

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"autopilot/internal/gp"
	"autopilot/internal/obs"
	"autopilot/internal/pareto"
	"autopilot/internal/pool"
	"autopilot/internal/tensor"
)

// Problem is a discrete multi-objective minimization problem.
type Problem struct {
	// Candidates are normalized feature encodings of each design point.
	Candidates [][]float64
	// Evaluate returns one objective vector (minimization) per candidate
	// index, in index-slice order. It is called once with the initial random
	// samples — whose identities don't depend on each other, so a caller can
	// score them concurrently — and then once per model-guided iteration
	// with the single picked index; each candidate is evaluated at most once.
	// A nil vector marks a failed evaluation: the candidate is consumed but
	// recorded nowhere, so the models and hypervolume trace are built from
	// survivors only.
	Evaluate func(indices []int) [][]float64
	// NumObjectives is the length of every objective vector.
	NumObjectives int
	// Ref is the hypervolume reference point; every reachable objective
	// vector should be component-wise below it. It must be finite.
	Ref []float64
	// Workers is how many goroutines predict, penalise and bound the
	// screened candidates of each model-guided iteration; values below 2
	// work sequentially. Each of those results depends on its candidate
	// alone, and the exact hypervolume pass that follows runs on one
	// goroutine, so results are bitwise identical at any worker count.
	Workers int
}

// Acquisition selects the candidate-scoring strategy. The paper uses
// SMS-EGO and notes it outperforms "other acquisition strategies such as
// expected improvement" for multi-objective DSE; the scalarized-EI
// alternative is provided for that comparison.
type Acquisition int

// Available acquisition functions.
const (
	AcqSMSEGO Acquisition = iota
	AcqScalarizedEI
)

// String names the acquisition function.
func (a Acquisition) String() string {
	switch a {
	case AcqSMSEGO:
		return "sms-ego"
	case AcqScalarizedEI:
		return "scalarized-ei"
	default:
		return fmt.Sprintf("Acquisition(%d)", int(a))
	}
}

// Config controls the optimization loop.
type Config struct {
	InitSamples int     // random evaluations before the model-guided phase
	Iterations  int     // model-guided evaluations
	ScreenSize  int     // candidates scored per iteration (subsampled)
	Gain        float64 // LCB gain (how optimistic the acquisition is)
	Noise       float64 // GP observation noise
	LengthScale float64 // SE kernel length scale in normalized feature space
	Acquisition Acquisition
	Seed        int64
}

// DefaultConfig returns settings that work well on the DSSoC space.
func DefaultConfig() Config {
	return Config{
		InitSamples: 16,
		Iterations:  48,
		ScreenSize:  1024,
		Gain:        1.0,
		Noise:       1e-6,
		LengthScale: 0.35,
		Seed:        1,
	}
}

// Evaluation is one evaluated design point.
type Evaluation struct {
	Index      int
	Objectives []float64
}

// Result is the optimizer output.
type Result struct {
	// Evaluations in the order they were performed.
	Evaluations []Evaluation
	// FrontIndices are candidate indices on the final Pareto front.
	FrontIndices []int
	// HypervolumeTrace[i] is the dominated hypervolume after evaluation i.
	HypervolumeTrace []float64
}

// Front returns the objective vectors of the final Pareto front.
func (r *Result) Front() [][]float64 {
	byIdx := map[int][]float64{}
	for _, e := range r.Evaluations {
		byIdx[e.Index] = e.Objectives
	}
	out := make([][]float64, 0, len(r.FrontIndices))
	for _, i := range r.FrontIndices {
		out = append(out, byIdx[i])
	}
	return out
}

func (p Problem) validate() error {
	if len(p.Candidates) == 0 {
		return fmt.Errorf("bayesopt: empty candidate set")
	}
	if p.Evaluate == nil {
		return fmt.Errorf("bayesopt: nil evaluator")
	}
	// The GP kernel compares candidates feature by feature.
	for i, c := range p.Candidates {
		if len(c) != len(p.Candidates[0]) {
			return fmt.Errorf("bayesopt: candidate %d has %d features, want %d", i, len(c), len(p.Candidates[0]))
		}
	}
	if p.NumObjectives <= 0 {
		return fmt.Errorf("bayesopt: non-positive objective count")
	}
	if len(p.Ref) != p.NumObjectives {
		return fmt.Errorf("bayesopt: ref dim %d, want %d", len(p.Ref), p.NumObjectives)
	}
	for j, r := range p.Ref {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("bayesopt: ref[%d] is non-finite (%g)", j, r)
		}
	}
	return nil
}

// OptimizeContext runs SMS-EGO Bayesian optimization and returns the
// evaluated designs, the final Pareto front and the hypervolume trace. The
// context is checked before every evaluation; on cancellation the optimizer
// stops and returns an error wrapping ctx.Err().
func OptimizeContext(ctx context.Context, p Problem, cfg Config) (*Result, error) {
	return optimize(ctx, p, cfg, nil)
}

// optimize is OptimizeContext with a hook that, when non-nil, sees every
// model-guided iteration's scoring state, screened pool and chosen pool
// position — the seam the scorer's exhaustive-reference tests use.
func optimize(ctx context.Context, p Problem, cfg Config, verify func(st *state, screened []int, k int)) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if cfg.InitSamples <= 0 || cfg.Iterations < 0 {
		return nil, fmt.Errorf("bayesopt: bad budget %+v", cfg)
	}
	rng := tensor.NewRNG(cfg.Seed)
	total := cfg.InitSamples + cfg.Iterations
	if total > len(p.Candidates) {
		total = len(p.Candidates)
	}

	res := &Result{}
	evaluated := map[int]bool{}
	var objs [][]float64 // objective vectors of evaluated points
	var feats [][]float64

	// Instrumentation (from the caller's observer, if any): evaluation and
	// iteration counters plus phase spans. All nil-safe no-ops when absent,
	// and purely observational — the search trajectory is unchanged.
	o := obs.FromContext(ctx)
	cEvals := o.Counter("bo.evaluations")
	cFailed := o.Counter("bo.failed_evals")
	cIters := o.Counter("bo.iterations")
	sc := &scoring{exact: o.Counter("bo.hv_exact"), pruned: o.Counter("bo.hv_pruned")}

	// evaluate scores indices through the problem's hook and records each
	// vector in index-slice order.
	evaluate := func(indices []int) error {
		ys := p.Evaluate(indices)
		if len(ys) != len(indices) {
			return fmt.Errorf("bayesopt: evaluator returned %d vectors for %d candidates", len(ys), len(indices))
		}
		for j, i := range indices {
			evaluated[i] = true
			cEvals.Inc()
			y := ys[j]
			if y == nil {
				// Failed evaluation (graceful degradation): the candidate is
				// consumed — never re-screened — but contributes no
				// observation, no model-fit point and no hypervolume-trace
				// entry.
				cFailed.Inc()
				continue
			}
			if len(y) != p.NumObjectives {
				return fmt.Errorf("bayesopt: evaluator returned %d objectives for candidate %d, want %d", len(y), i, p.NumObjectives)
			}
			objs = append(objs, y)
			feats = append(feats, p.Candidates[i])
			res.Evaluations = append(res.Evaluations, Evaluation{Index: i, Objectives: y})
			res.HypervolumeTrace = append(res.HypervolumeTrace, sc.hv.Hypervolume(objs, p.Ref))
		}
		return nil
	}

	// Phase A: random initialization. The initial indices are fixed up front
	// by the seeded permutation and scored in one call; recording in
	// permutation order keeps the hypervolume trace and the downstream model
	// fits independent of how the caller scored them.
	perm := rng.Perm(len(p.Candidates))
	init := perm[:min(cfg.InitSamples, total)]
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bayesopt: cancelled: %w", err)
	}
	isp := obs.StartStep(ctx, "bo.init", "bayesopt")
	defer isp.End() // idempotent; covers the early error returns below
	if err := evaluate(init); err != nil {
		return nil, err
	}
	isp.End()

	if len(objs) == 0 {
		return nil, fmt.Errorf("bayesopt: all %d initial samples failed to evaluate", len(init))
	}

	// Phase B: model-guided SMS-EGO iterations.
	kernel := gp.SE{Variance: 1, LengthScale: cfg.LengthScale}
	for len(res.Evaluations) < total {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("bayesopt: cancelled: %w", err)
		}
		it := obs.StartStep(ctx, "bo.iter", "bayesopt")
		cIters.Inc()
		model, scales, err := fitModel(feats, objs, kernel, cfg.Noise)
		if err != nil {
			it.End()
			return nil, err
		}
		front := pareto.Filter(objs)
		pool := screen(rng, len(p.Candidates), evaluated, cfg.ScreenSize)
		if len(pool) == 0 {
			it.End()
			break
		}
		st := &state{model: model, n: len(feats), scales: scales, front: front, ref: p.Ref, gain: cfg.Gain, acq: cfg.Acquisition}
		if cfg.Acquisition == AcqScalarizedEI {
			st.weights, st.bestScalar = eiSetup(rng, objs, p.Ref, p.NumObjectives)
		} else {
			st.base = sc.hv.Hypervolume(front, p.Ref)
		}
		k, err := sc.choose(ctx, p.Workers, st, p.Candidates, pool)
		if err != nil {
			it.End()
			return nil, fmt.Errorf("bayesopt: scoring: %w", err)
		}
		if verify != nil {
			verify(st, pool, k)
		}
		if k < 0 {
			it.End()
			return nil, fmt.Errorf("bayesopt: none of %d screened candidates has a usable acquisition score (all NaN or -Inf)", len(pool))
		}
		best := pool[k]
		err = evaluate([]int{best})
		it.End()
		if err != nil {
			return nil, err
		}
	}

	// Final Pareto front over everything evaluated.
	nd := pareto.NonDominated(objs)
	for _, i := range nd {
		res.FrontIndices = append(res.FrontIndices, res.Evaluations[i].Index)
	}
	return res, nil
}

// fitModel fits one GP with a standardized output per objective, all
// sharing one covariance factor, and returns it with the per-objective
// (mean, std) used to de-standardize predictions.
func fitModel(feats [][]float64, objs [][]float64, kernel gp.SE, noise float64) (*gp.GP, [][2]float64, error) {
	m := len(objs[0])
	ys := make([][]float64, m)
	scales := make([][2]float64, m)
	for j := range ys {
		y := make([]float64, len(objs))
		mean, sd := 0.0, 0.0
		for i, o := range objs {
			y[i] = o[j]
			mean += o[j]
		}
		mean /= float64(len(y))
		for _, v := range y {
			sd += (v - mean) * (v - mean)
		}
		sd = math.Sqrt(sd / float64(len(y)))
		if sd < 1e-12 {
			sd = 1
		}
		for i := range y {
			y[i] = (y[i] - mean) / sd
		}
		ys[j] = y
		scales[j] = [2]float64{mean, sd}
	}
	g, err := gp.FitMulti(feats, ys, kernel, noise+1e-9)
	if err != nil {
		return nil, nil, err
	}
	return g, scales, nil
}

// screen returns up to n unevaluated candidate indices sampled without
// replacement.
func screen(rng *tensor.RNG, total int, evaluated map[int]bool, n int) []int {
	remaining := total - len(evaluated)
	if remaining <= 0 {
		return nil
	}
	if remaining <= n {
		out := make([]int, 0, remaining)
		for i := 0; i < total; i++ {
			if !evaluated[i] {
				out = append(out, i)
			}
		}
		return out
	}
	out := make([]int, 0, n)
	seen := map[int]bool{}
	for len(out) < n {
		i := rng.Intn(total)
		if evaluated[i] || seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, i)
	}
	return out
}

// state is what every scorer reads, and none writes, during one
// model-guided iteration.
type state struct {
	model  *gp.GP
	n      int          // the model's training points
	scales [][2]float64 // per-objective (mean, std) of the standardized outputs
	front  [][]float64
	ref    []float64
	gain   float64
	acq    Acquisition
	base   float64 // SMS-EGO: Hypervolume(front, ref)
	// scalarized EI: weight vector and best scalarized observation
	weights    []float64
	bestScalar float64
}

// scoring is the acquisition's working memory, reused across iterations.
// SMS-EGO scores in two passes. Pass 1, in parallel, predicts every
// screened candidate and settles everything that needs no hypervolume: the
// dominance penalty and, for the rest, a cheap upper bound on the
// hypervolume contribution. Pass 2, on one goroutine, computes exact
// contributions in descending bound order and skips every candidate whose
// bound is below the best exact score so far by more than the rounding
// tolerance, so the pick is the exhaustive argmax, bit for bit.
type scoring struct {
	scorers []scorer // one per pass-1 chunk, grown on demand
	// Per screened candidate: vals[k] is its score, or, while open[k] (an
	// unpenalised SMS-EGO candidate), its contribution bound; lcbs holds
	// its LCB vector at [k*m, (k+1)*m).
	vals  []float64
	open  []bool
	lcbs  []float64
	order []int          // pass 2's visiting order
	pts   [][]float64    // the iteration's front followed by one LCB vector
	hv    pareto.Scratch // the trace, each iteration's base and pass 2
	// exact and pruned count pass 2's exact hypervolumes and skipped
	// candidates (bo.hv_exact, bo.hv_pruned); nil when telemetry is off.
	exact, pruned *obs.Counter
}

// scorer is one pass-1 worker's reusable working memory: once its buffers
// have grown, predicting and bounding candidates allocates nothing.
type scorer struct {
	means [gp.Block][]float64 // per-query, per-objective posterior means
	block [][gp.Block]float64 // PredictBlock's kernel vectors and forward solves
	box   []float64           // the contribution bound's box corner
}

// choose returns the pool position of the screened candidate with the
// highest acquisition score, ties to the earliest position, or -1 when no
// score is usable (all NaN or -Inf). The result is bitwise independent of
// the worker count.
func (sc *scoring) choose(ctx context.Context, workers int, st *state, cands [][]float64, screened []int) (int, error) {
	sc.vals = grow(sc.vals, len(screened))
	sc.open = grow(sc.open, len(screened))
	sc.lcbs = grow(sc.lcbs, len(screened)*len(st.scales))
	sc.order = grow(sc.order, len(screened))
	if err := sc.predict(ctx, workers, st, cands, screened); err != nil {
		return -1, err
	}
	return sc.argmax(st), nil
}

// argmax runs pass 2 over pass 1's outcome and returns the winning pool
// position, or -1.
func (sc *scoring) argmax(st *state) int {
	// Scores settled in pass 1 (EI, dominance penalties): a sequential
	// argmax, ties to the earliest position.
	best, bestScore := -1, math.Inf(-1)
	sc.order = sc.order[:0]
	for k, v := range sc.vals {
		switch {
		case sc.open[k]:
			sc.order = append(sc.order, k)
		case v > bestScore:
			best, bestScore = k, v
		}
	}
	// A pruned bound is below bestScore by more than pareto.BoundTolerance,
	// which exceeds the rounding error of both the bound and the exact score,
	// so the pruned candidate's exact score is strictly below the final best:
	// it can neither win nor tie. A NaN bound compares false and is never
	// pruned. The visiting order only decides how early bestScore rises.
	slices.SortFunc(sc.order, func(a, b int) int {
		if c := cmp.Compare(sc.vals[b], sc.vals[a]); c != 0 {
			return c
		}
		return a - b
	})
	m := len(st.scales)
	var exact, pruned int64
	for _, k := range sc.order {
		bound := sc.vals[k]
		if bound < bestScore-pareto.BoundTolerance(st.base, bound) {
			pruned++
			continue
		}
		exact++
		sc.pts = append(append(sc.pts[:0], st.front...), sc.lcbs[k*m:(k+1)*m])
		if v := sc.hv.Hypervolume(sc.pts, st.ref) - st.base; v > bestScore || (v == bestScore && k < best) {
			best, bestScore = k, v
		}
	}
	sc.exact.Add(exact)
	sc.pruned.Add(pruned)
	return best
}

// grow returns s resized to n elements, reallocating only to grow.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// predict is pass 1: it fills vals, open and lcbs for every screened
// candidate. The pool is cut into one contiguous chunk per worker (at most
// one per candidate), each predicted gp.Block candidates at a time by its
// own scorer on the bounded, panic-isolating worker pool.
func (sc *scoring) predict(ctx context.Context, workers int, st *state, cands [][]float64, screened []int) error {
	w := min(max(workers, 1), len(screened))
	if len(sc.scorers) < w {
		sc.scorers = append(sc.scorers, make([]scorer, w-len(sc.scorers))...)
	}
	chunks := make([]int, w)
	for c := range chunks {
		chunks[c] = c
	}
	return pool.ForEach(ctx, w, chunks, func(_ context.Context, c int) error {
		s := &sc.scorers[c]
		s.prepare(st)
		sc.predictRange(s, st, cands, screened, c*len(screened)/w, (c+1)*len(screened)/w)
		return nil
	})
}

// predictRange settles screened positions [k, end) on scorer s, gp.Block
// candidates per prediction; a short last block repeats its final candidate
// to fill the block and settles only the real ones.
func (sc *scoring) predictRange(s *scorer, st *state, cands [][]float64, screened []int, k, end int) {
	for ; k < end; k += gp.Block {
		var qs [gp.Block][]float64
		for t := range qs {
			qs[t] = cands[screened[min(k+t, end-1)]]
		}
		vs := st.model.PredictBlock(qs, s.means, s.block)
		for t := 0; t < gp.Block && k+t < end; t++ {
			sc.settle(s, st, k+t, s.means[t], vs[t])
		}
	}
}

// prepare sizes the buffers for st's model.
func (s *scorer) prepare(st *state) {
	s.block = grow(s.block, st.n)
	if s.box == nil {
		m := len(st.scales)
		back := make([]float64, (gp.Block+1)*m)
		for t := range s.means {
			s.means[t] = back[t*m : (t+1)*m]
		}
		s.box = back[gp.Block*m:]
	}
}

// settle records candidate k's pass-1 outcome from its posterior. SMS-EGO
// takes the LCB estimate: an epsilon-dominated one scores minus its
// dominance penalty, any other is left open with its contribution bound.
func (sc *scoring) settle(s *scorer, st *state, k int, means []float64, variance float64) {
	if st.acq == AcqScalarizedEI {
		sc.vals[k], sc.open[k] = expectedImprovement(means, variance, st.scales, st.weights, st.bestScalar, st.ref), false
		return
	}
	lcb := sc.lcbs[k*len(means) : (k+1)*len(means)]
	for j, mu := range means {
		mu = mu*st.scales[j][1] + st.scales[j][0]
		sd := math.Sqrt(variance) * st.scales[j][1]
		lcb[j] = mu - st.gain*sd
	}
	// dominance penalty: distance by which the closest front point beats lcb
	penalty := 0.0
	for _, f := range st.front {
		if pareto.WeaklyDominates(f, lcb) {
			slack := 0.0
			for j := range f {
				d := (lcb[j] - f[j]) / math.Max(math.Abs(st.ref[j]), 1e-9)
				if d > slack {
					slack = d
				}
			}
			if penalty == 0 || slack < penalty {
				penalty = slack
			}
		}
	}
	if penalty > 0 {
		sc.vals[k], sc.open[k] = -penalty, false
		return
	}
	sc.vals[k], sc.open[k] = pareto.ContributionBound(st.front, lcb, st.ref, s.box), true
}

// eiSetup draws a random scalarization weight vector (normalized by the
// reference point) and returns it with the best scalarized observation.
func eiSetup(rng *tensor.RNG, objs [][]float64, ref []float64, m int) ([]float64, float64) {
	w := make([]float64, m)
	sum := 0.0
	for i := range w {
		w[i] = rng.Float64() + 1e-3
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	best := math.Inf(1)
	for _, y := range objs {
		if s := scalarize(w, y, ref); s < best {
			best = s
		}
	}
	return w, best
}

func scalarize(w, y, ref []float64) float64 {
	s := 0.0
	for i := range y {
		s += w[i] * y[i] / math.Max(math.Abs(ref[i]), 1e-9)
	}
	return s
}

// expectedImprovement is the classic single-objective EI applied to the
// weighted scalarization of the per-objective GP posteriors (independence
// assumed across objectives), given their standardized means and shared
// variance.
func expectedImprovement(means []float64, v float64, scales [][2]float64, w []float64, best float64, ref []float64) float64 {
	mu, varSum := 0.0, 0.0
	for j, m := range means {
		m = m*scales[j][1] + scales[j][0]
		sd := math.Sqrt(v) * scales[j][1]
		norm := math.Max(math.Abs(ref[j]), 1e-9)
		mu += w[j] * m / norm
		varSum += (w[j] * sd / norm) * (w[j] * sd / norm)
	}
	sd := math.Sqrt(varSum)
	if sd < 1e-12 {
		if mu < best {
			return best - mu
		}
		return 0
	}
	z := (best - mu) / sd
	return (best-mu)*stdNormalCDF(z) + sd*stdNormalPDF(z)
}

func stdNormalPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}

func stdNormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// RandomSearch evaluates `budget` random candidates in one call to the
// problem's hook — the baseline the ablation benchmarks compare SMS-EGO
// against.
func RandomSearch(p Problem, budget int, seed int64) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed)
	if budget > len(p.Candidates) {
		budget = len(p.Candidates)
	}
	res := &Result{}
	var objs [][]float64
	indices := rng.Perm(len(p.Candidates))[:budget]
	ys := p.Evaluate(indices)
	if len(ys) != len(indices) {
		return nil, fmt.Errorf("bayesopt: evaluator returned %d vectors for %d candidates", len(ys), len(indices))
	}
	for j, i := range indices {
		objs = append(objs, ys[j])
		res.Evaluations = append(res.Evaluations, Evaluation{Index: i, Objectives: ys[j]})
		res.HypervolumeTrace = append(res.HypervolumeTrace, pareto.Hypervolume(objs, p.Ref))
	}
	for _, i := range pareto.NonDominated(objs) {
		res.FrontIndices = append(res.FrontIndices, res.Evaluations[i].Index)
	}
	return res, nil
}
