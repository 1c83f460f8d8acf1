package bayesopt

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"autopilot/internal/gp"
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

// TestScoreSMSEGOAllocationFree checks that once a scorer's buffers are
// warm, scoring candidates through the SMS-EGO path allocates nothing.
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
	var s scorer
	s.prepare(st)
	cands := p.Candidates[40:]
	contributing := 0
	for _, x := range cands { // warm every buffer
		if s.score(st, x) >= 0 {
			contributing++
		}
	}
	if contributing == 0 {
		t.Fatal("no candidate reached the hypervolume-contribution path")
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, x := range cands {
			s.score(st, x)
		}
	})
	if allocs != 0 {
		t.Fatalf("scoring %d warm candidates allocated %v times", len(cands), allocs)
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
