package bayesopt

import (
	"context"
	"math"
	"testing"
)

// zdt1Grid builds a discrete two-objective problem with a known Pareto front:
// x = (a, b) on a grid, f1 = a, f2 = b + (1-a)²; front at b = 0.
func zdt1Grid(n int) Problem {
	var cands [][]float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cands = append(cands, []float64{float64(i) / float64(n-1), float64(j) / float64(n-1)})
		}
	}
	return Problem{
		Candidates: cands,
		Evaluate: perIndex(func(i int) []float64 {
			a, b := cands[i][0], cands[i][1]
			return []float64{a, b + (1-a)*(1-a)}
		}),
		NumObjectives: 2,
		Ref:           []float64{2, 3},
	}
}

// perIndex lifts a one-candidate objective function into the batch hook.
func perIndex(f func(i int) []float64) func([]int) [][]float64 {
	return func(indices []int) [][]float64 {
		ys := make([][]float64, len(indices))
		for j, i := range indices {
			ys[j] = f(i)
		}
		return ys
	}
}

func TestOptimizeValidation(t *testing.T) {
	p := zdt1Grid(5)
	if _, err := OptimizeContext(context.Background(), Problem{}, DefaultConfig()); err == nil {
		t.Error("expected error for empty problem")
	}
	bad := p
	bad.Ref = []float64{1}
	if _, err := OptimizeContext(context.Background(), bad, DefaultConfig()); err == nil {
		t.Error("expected error for ref dim mismatch")
	}
	ragged := p
	ragged.Candidates = append([][]float64{{0}}, p.Candidates[1:]...)
	if _, err := OptimizeContext(context.Background(), ragged, DefaultConfig()); err == nil {
		t.Error("expected error for candidates of unequal feature length")
	}
	cfg := DefaultConfig()
	cfg.InitSamples = 0
	if _, err := OptimizeContext(context.Background(), p, cfg); err == nil {
		t.Error("expected error for zero init samples")
	}
}

func TestOptimizeEvaluatesEachCandidateOnce(t *testing.T) {
	p := zdt1Grid(6)
	calls := map[int]int{}
	inner := p.Evaluate
	p.Evaluate = func(indices []int) [][]float64 {
		for _, i := range indices {
			calls[i]++
		}
		return inner(indices)
	}
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 8, 12, 16
	res, err := OptimizeContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluations) != 20 {
		t.Fatalf("evaluations = %d, want 20", len(res.Evaluations))
	}
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("candidate %d evaluated %d times", i, c)
		}
	}
}

func TestOptimizeBudgetCappedBySpace(t *testing.T) {
	p := zdt1Grid(3) // 9 candidates
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations = 5, 50
	res, err := OptimizeContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluations) != 9 {
		t.Fatalf("evaluations = %d, want all 9", len(res.Evaluations))
	}
}

func TestHypervolumeTraceMonotone(t *testing.T) {
	p := zdt1Grid(8)
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 6, 20, 32
	res, err := OptimizeContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.HypervolumeTrace); i++ {
		if res.HypervolumeTrace[i] < res.HypervolumeTrace[i-1]-1e-12 {
			t.Fatalf("trace decreased at %d: %g -> %g", i, res.HypervolumeTrace[i-1], res.HypervolumeTrace[i])
		}
	}
}

func TestFrontIsNonDominatedAndOnTrueFront(t *testing.T) {
	p := zdt1Grid(10)
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 10, 40, 64
	cfg.Seed = 3
	res, err := OptimizeContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := res.Front()
	if len(front) == 0 {
		t.Fatal("empty front")
	}
	for i, a := range front {
		for j, b := range front {
			if i == j {
				continue
			}
			dom := true
			strict := false
			for k := range a {
				if a[k] > b[k] {
					dom = false
				}
				if a[k] < b[k] {
					strict = true
				}
			}
			if dom && strict {
				t.Fatalf("front point %v dominates front point %v", a, b)
			}
		}
	}
	// with 50 evaluations on a 100-point grid, BO should discover at least
	// a few of the 10 true-front points (b = 0)
	trueFront := 0
	for _, idx := range res.FrontIndices {
		if p.Candidates[idx][1] == 0 {
			trueFront++
		}
	}
	if trueFront < 3 {
		t.Fatalf("only %d true-front points found", trueFront)
	}
}

func TestBOBeatsRandomSearchOnBudget(t *testing.T) {
	p := zdt1Grid(20) // 400 candidates
	budget := 40
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 10, budget-10, 128
	cfg.Seed = 7
	bo, err := OptimizeContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// mean over a few random seeds to avoid flakiness
	var randHV float64
	const seeds = 5
	for s := int64(0); s < seeds; s++ {
		r, err := RandomSearch(p, budget, 100+s)
		if err != nil {
			t.Fatal(err)
		}
		randHV += r.HypervolumeTrace[len(r.HypervolumeTrace)-1]
	}
	randHV /= seeds
	boHV := bo.HypervolumeTrace[len(bo.HypervolumeTrace)-1]
	if boHV < randHV {
		t.Fatalf("BO hypervolume %.4f below mean random-search %.4f", boHV, randHV)
	}
}

func TestRandomSearchValidation(t *testing.T) {
	if _, err := RandomSearch(Problem{}, 10, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestRandomSearchBudgetCap(t *testing.T) {
	p := zdt1Grid(3)
	res, err := RandomSearch(p, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluations) != 9 {
		t.Fatalf("evaluations = %d, want 9", len(res.Evaluations))
	}
}

func TestOptimizeDeterministicForSeed(t *testing.T) {
	p := zdt1Grid(8)
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 6, 10, 32
	a, err := OptimizeContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OptimizeContext(context.Background(), zdt1Grid(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Evaluations) != len(b.Evaluations) {
		t.Fatal("lengths differ")
	}
	for i := range a.Evaluations {
		if a.Evaluations[i].Index != b.Evaluations[i].Index {
			t.Fatalf("evaluation %d differs: %d vs %d", i, a.Evaluations[i].Index, b.Evaluations[i].Index)
		}
	}
}

func TestAcquisitionPrefersNonDominatedRegion(t *testing.T) {
	// direct unit check on the acquisition machinery via a 1-candidate run:
	// a constant-objective problem must not crash the GP (zero variance path)
	cands := [][]float64{{0}, {0.5}, {1}}
	p := Problem{
		Candidates:    cands,
		Evaluate:      perIndex(func(i int) []float64 { return []float64{1, 1} }),
		NumObjectives: 2,
		Ref:           []float64{2, 2},
	}
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations = 2, 1
	if _, err := OptimizeContext(context.Background(), p, cfg); err != nil {
		t.Fatalf("constant objectives: %v", err)
	}
}

func TestOptimizeSingleObjectiveFindsMinimum(t *testing.T) {
	// 1-objective degenerate case: BO should find the global minimum of a
	// smooth function on a line.
	n := 50
	var cands [][]float64
	for i := 0; i < n; i++ {
		cands = append(cands, []float64{float64(i) / float64(n-1)})
	}
	f := func(x float64) float64 { return (x - 0.37) * (x - 0.37) }
	p := Problem{
		Candidates:    cands,
		Evaluate:      perIndex(func(i int) []float64 { return []float64{f(cands[i][0])} }),
		NumObjectives: 1,
		Ref:           []float64{2},
	}
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 5, 15, 50
	res, err := OptimizeContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for _, e := range res.Evaluations {
		if e.Objectives[0] < best {
			best = e.Objectives[0]
		}
	}
	if best > 0.01 {
		t.Fatalf("best objective %.4f, want near 0 (20 evals on 50 points)", best)
	}
}

func TestAcquisitionStrings(t *testing.T) {
	if AcqSMSEGO.String() != "sms-ego" || AcqScalarizedEI.String() != "scalarized-ei" {
		t.Fatal("bad acquisition names")
	}
}

func TestScalarizedEIOptimizes(t *testing.T) {
	p := zdt1Grid(12)
	cfg := DefaultConfig()
	cfg.Acquisition = AcqScalarizedEI
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 8, 24, 64
	res, err := OptimizeContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FrontIndices) == 0 {
		t.Fatal("empty front from EI")
	}
	// EI must still beat pure luck on average over a fair budget
	final := res.HypervolumeTrace[len(res.HypervolumeTrace)-1]
	if final <= 0 {
		t.Fatalf("EI hypervolume %g", final)
	}
}

func TestStdNormalHelpers(t *testing.T) {
	if math.Abs(stdNormalCDF(0)-0.5) > 1e-12 {
		t.Fatalf("Phi(0) = %g", stdNormalCDF(0))
	}
	if stdNormalCDF(5) < 0.999 || stdNormalCDF(-5) > 0.001 {
		t.Fatal("CDF tails wrong")
	}
	if math.Abs(stdNormalPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Fatalf("phi(0) = %g", stdNormalPDF(0))
	}
}
