package bayesopt

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"autopilot/internal/gp"
	"autopilot/internal/obs"
	"autopilot/internal/pareto"
	"autopilot/internal/tensor"
)

// dtlz2 builds a three-objective problem on n random candidates in [0,1]^4
// whose Pareto front is the positive octant of the unit sphere.
func dtlz2(n int, seed int64) Problem {
	g := tensor.NewRNG(seed)
	cands := make([][]float64, n)
	for i := range cands {
		cands[i] = []float64{g.Float64(), g.Float64(), g.Float64(), g.Float64()}
	}
	return Problem{
		Candidates: cands,
		Evaluate: perIndex(func(i int) []float64 {
			x := cands[i]
			r := 1 + (x[2]-0.5)*(x[2]-0.5) + (x[3]-0.5)*(x[3]-0.5)
			a, b := x[0]*math.Pi/2, x[1]*math.Pi/2
			return []float64{r * math.Cos(a) * math.Cos(b), r * math.Cos(a) * math.Sin(b), r * math.Sin(a)}
		}),
		NumObjectives: 3,
		Ref:           []float64{2, 2, 2},
	}
}

// TestScoringWorkerCountInvariant pins parallel scoring: the evaluation
// sequence and hypervolume trace must be bitwise identical whether the
// screened pool is scored by one, two or eight workers, or by an absurd
// count that must be clamped to the pool rather than sized up front.
func TestScoringWorkerCountInvariant(t *testing.T) {
	for _, acq := range []Acquisition{AcqSMSEGO, AcqScalarizedEI} {
		cfg := DefaultConfig()
		cfg.Acquisition = acq
		cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 12, 24, 256
		var want *Result
		for _, workers := range []int{1, 2, 8, math.MaxInt32} {
			p := dtlz2(512, 5)
			p.Workers = workers
			res, err := OptimizeContext(context.Background(), p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = res
				continue
			}
			if !reflect.DeepEqual(res.Evaluations, want.Evaluations) {
				t.Fatalf("%v: evaluations at %d workers differ from 1 worker", acq, workers)
			}
			if !reflect.DeepEqual(res.HypervolumeTrace, want.HypervolumeTrace) {
				t.Fatalf("%v: hypervolume trace at %d workers differs from 1 worker", acq, workers)
			}
		}
	}
}

// TestScoreSMSEGOAllocationFree checks that once the scoring buffers are
// warm, both SMS-EGO passes — block prediction, penalties and bounds, then
// the pruned exact contributions — allocate nothing.
func TestScoreSMSEGOAllocationFree(t *testing.T) {
	p := dtlz2(256, 6)
	var feats, objs [][]float64
	for i := 0; i < 40; i++ {
		feats = append(feats, p.Candidates[i])
		objs = append(objs, p.Evaluate([]int{i})[0])
	}
	model, scales, err := fitModel(feats, objs, gp.SE{Variance: 1, LengthScale: 0.35}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	front := pareto.Filter(objs)
	st := &state{model: model, n: len(feats), scales: scales, front: front, ref: p.Ref, gain: 1,
		base: pareto.Hypervolume(front, p.Ref)}
	screened := make([]int, 0, 215) // not a multiple of gp.Block
	for i := 40; i < 255; i++ {
		screened = append(screened, i)
	}
	var sc scoring
	var s scorer
	score := func() {
		sc.vals = grow(sc.vals, len(screened))
		sc.open = grow(sc.open, len(screened))
		sc.lcbs = grow(sc.lcbs, len(screened)*len(scales))
		s.prepare(st)
		sc.predictRange(&s, st, p.Candidates, screened, 0, len(screened))
		sc.argmax(st)
	}
	score() // warm every buffer
	open := 0
	for _, o := range sc.open {
		if o {
			open++
		}
	}
	if open == 0 {
		t.Fatal("no candidate reached the hypervolume-contribution path")
	}
	if allocs := testing.AllocsPerRun(5, score); allocs != 0 {
		t.Fatalf("scoring %d warm candidates allocated %v times", len(screened), allocs)
	}
}

// exhaustiveChoose is the SMS-EGO scorer before pruning, kept as the
// reference: every screened candidate gets one PredictInto, the dominance
// penalty and, if unpenalised, its exact hypervolume contribution, and the
// sequential argmax takes the earliest of the best.
func exhaustiveChoose(st *state, cands [][]float64, screened []int) int {
	m := len(st.scales)
	means, buf, lcb := make([]float64, m), make([]float64, st.n), make([]float64, m)
	pts := append(append([][]float64(nil), st.front...), lcb)
	best, bestScore := -1, math.Inf(-1)
	for k, ci := range screened {
		variance := st.model.PredictInto(cands[ci], means, buf)
		var score float64
		if st.acq == AcqScalarizedEI {
			score = expectedImprovement(means, variance, st.scales, st.weights, st.bestScalar, st.ref)
		} else {
			for j, mu := range means {
				mu = mu*st.scales[j][1] + st.scales[j][0]
				sd := math.Sqrt(variance) * st.scales[j][1]
				lcb[j] = mu - st.gain*sd
			}
			penalty := 0.0
			for _, f := range st.front {
				if pareto.WeaklyDominates(f, lcb) {
					slack := 0.0
					for j := range f {
						if d := (lcb[j] - f[j]) / math.Max(math.Abs(st.ref[j]), 1e-9); d > slack {
							slack = d
						}
					}
					if penalty == 0 || slack < penalty {
						penalty = slack
					}
				}
			}
			score = -penalty
			if penalty == 0 {
				score = pareto.Hypervolume(pts, st.ref) - st.base
			}
		}
		if score > bestScore {
			best, bestScore = k, score
		}
	}
	return best
}

// optimizeAgainstExhaustive runs the optimizer and checks every
// model-guided pick against exhaustiveChoose on the same state. It returns
// the bo.hv_pruned count, so callers can tell the check was not vacuous.
func optimizeAgainstExhaustive(t testing.TB, p Problem, cfg Config) int64 {
	t.Helper()
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	iter := 0
	_, err := optimize(obs.NewContext(context.Background(), o), p, cfg, func(st *state, screened []int, k int) {
		if want := exhaustiveChoose(st, p.Candidates, screened); k != want {
			t.Errorf("iteration %d (workers=%d): pruned scorer chose pool position %d, exhaustive %d", iter, p.Workers, k, want)
		}
		iter++
	})
	if err != nil {
		t.Fatal(err)
	}
	if iter != cfg.Iterations {
		t.Fatalf("checked %d iterations, want %d", iter, cfg.Iterations)
	}
	return o.Counter("bo.hv_pruned").Value()
}

// TestPrunedMatchesExhaustive pins the pruned scorer to the exhaustive one:
// every iteration's pick on dtlz2, under both acquisitions and at 1, 2 and
// 8 workers, must be the exhaustive argmax, and the prune count must not
// depend on the worker count.
func TestPrunedMatchesExhaustive(t *testing.T) {
	for _, acq := range []Acquisition{AcqSMSEGO, AcqScalarizedEI} {
		cfg := DefaultConfig()
		cfg.Acquisition = acq
		cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 12, 24, 256
		want := int64(-1)
		for _, workers := range []int{1, 2, 8} {
			p := dtlz2(512, 5)
			p.Workers = workers
			pruned := optimizeAgainstExhaustive(t, p, cfg)
			if acq == AcqSMSEGO && pruned == 0 {
				t.Fatalf("workers=%d: nothing was pruned", workers)
			}
			if want >= 0 && pruned != want {
				t.Fatalf("workers=%d: bo.hv_pruned = %d, %d at one worker", workers, pruned, want)
			}
			want = pruned
		}
	}
}

// TestArgmaxTiesGoToEarliest feeds pass 2 hand-made pass-1 outcomes: a
// penalised score, a NaN LCB, and exact contributions 0.0875, 0.09, 0.04
// and 0.09 again. The earlier of the tied best must win, as in the
// sequential exhaustive argmax.
func TestArgmaxTiesGoToEarliest(t *testing.T) {
	front := [][]float64{{0.2, 0.8}, {0.8, 0.2}}
	ref := []float64{1, 1}
	st := &state{scales: make([][2]float64, 2), front: front, ref: ref, base: pareto.Hypervolume(front, ref)}
	lcbs := [][]float64{{0.9, 0.9}, {0.45, 0.55}, {math.NaN(), 0.1}, {0.5, 0.5}, {0.6, 0.6}, {0.5, 0.5}}
	sc := scoring{vals: make([]float64, len(lcbs)), open: make([]bool, len(lcbs)), order: make([]int, 0, len(lcbs))}
	for k, lcb := range lcbs {
		sc.lcbs = append(sc.lcbs, lcb...)
		if k == 0 {
			sc.vals[k] = -0.1 // dominance-penalised
			continue
		}
		sc.vals[k], sc.open[k] = pareto.ContributionBound(front, lcb, ref, make([]float64, 2)), true
	}
	if got := sc.argmax(st); got != 3 {
		t.Fatalf("argmax = %d, want 3 (the earlier of the tied best)", got)
	}
}

func TestNonFiniteRefRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := zdt1Grid(5)
		p.Ref = []float64{2, bad}
		if _, err := OptimizeContext(context.Background(), p, DefaultConfig()); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("ref %g: OptimizeContext err = %v, want non-finite ref error", bad, err)
		}
		if _, err := RandomSearch(p, 4, 1); err == nil {
			t.Fatalf("ref %g: RandomSearch accepted it", bad)
		}
	}
}

// TestNoUsableScoreIsAnError feeds candidates whose features are NaN, so
// every acquisition score is NaN: the optimizer must fail with an error
// instead of evaluating the "best" index -1.
func TestNoUsableScoreIsAnError(t *testing.T) {
	for _, acq := range []Acquisition{AcqSMSEGO, AcqScalarizedEI} {
		p := zdt1Grid(4)
		inner := p.Evaluate
		p.Candidates = make([][]float64, len(p.Candidates))
		for i := range p.Candidates {
			p.Candidates[i] = []float64{math.NaN(), math.NaN()}
		}
		p.Evaluate = func(indices []int) [][]float64 {
			for _, i := range indices {
				if i < 0 {
					t.Fatalf("Evaluate(%d) called", i)
				}
			}
			return inner(indices)
		}
		cfg := DefaultConfig()
		cfg.Acquisition = acq
		cfg.InitSamples, cfg.Iterations = 4, 4
		if _, err := OptimizeContext(context.Background(), p, cfg); err == nil || !strings.Contains(err.Error(), "usable acquisition score") {
			t.Fatalf("%v: err = %v, want no-usable-score error", acq, err)
		}
	}
}
