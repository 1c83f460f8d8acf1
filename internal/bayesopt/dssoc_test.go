package bayesopt_test

import (
	"context"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/bayesopt"
	"autopilot/internal/dse"
	"autopilot/internal/power"
)

// TestPrunedMatchesExhaustiveDSSoC checks every pick of an SMS-EGO run on
// the DSSoC surrogate (nano-scale design space, dense scenario, the
// objectives and reference point Phase 2 uses) against the exhaustive
// scorer, at 1, 2 and 8 workers, with the same prune count at each.
func TestPrunedMatchesExhaustiveDSSoC(t *testing.T) {
	db := airlearning.NewDatabase()
	airlearning.PopulateSurrogate(db)
	space := dse.DefaultSpace()
	cands := space.Sample(512, 3)
	ev := dse.Request{Space: space, DB: db, Scenario: airlearning.DenseObstacle, Power: power.Default()}.NewEvaluator()
	es, errs := make([]dse.Evaluated, len(cands)), make([]error, len(cands))
	if err := ev.Evaluate(context.Background(), cands, 0, es, errs); err != nil {
		t.Fatal(err)
	}
	feats := make([][]float64, len(cands))
	for i, d := range cands {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		feats[i] = space.Features(d)
	}
	cfg := dse.DefaultConfig().BO
	cfg.Iterations = 32
	want := int64(-1)
	for _, workers := range []int{1, 2, 8} {
		p := bayesopt.Problem{
			Candidates: feats,
			Evaluate: func(indices []int) [][]float64 {
				ys := make([][]float64, len(indices))
				for j, i := range indices {
					ys[j] = es[i].Objectives()
				}
				return ys
			},
			NumObjectives: 3,
			Ref:           []float64{0, 30, 1},
			Workers:       workers,
		}
		pruned := bayesopt.OptimizeAgainstExhaustive(t, p, cfg)
		if pruned == 0 {
			t.Fatalf("workers=%d: nothing was pruned", workers)
		}
		if want >= 0 && pruned != want {
			t.Fatalf("workers=%d: bo.hv_pruned = %d, %d at one worker", workers, pruned, want)
		}
		want = pruned
	}
}
