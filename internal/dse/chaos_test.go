package dse

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/fault"
	"autopilot/internal/power"
	"autopilot/internal/tensor"
)

// chaosExecute runs Phase 2 under a fault injector with an open failure
// budget.
func chaosExecute(t *testing.T, workers int, in *fault.Injector, retry fault.Policy, budget float64) (*Result, error) {
	t.Helper()
	return Execute(context.Background(), Request{
		Space:         DefaultSpace(),
		DB:            surrogateDB(),
		Scenario:      airlearning.DenseObstacle,
		Power:         power.Default(),
		Config:        smallConfig(),
		Workers:       workers,
		Retry:         retry,
		FailureBudget: budget,
		Injector:      in,
	})
}

// TestExecuteChaosDeterministicDegradation injects seeded evaluation faults
// and checks Phase 2 degrades identically at workers=1 and workers=8: same
// failure report, bitwise-identical surviving evaluations, same front, and
// no NaN leaking past the guardrails into the survivors.
func TestExecuteChaosDeterministicDegradation(t *testing.T) {
	in := &fault.Injector{Seed: 11, ErrorRate: 0.08, NaNRate: 0.08}
	seq, err := chaosExecute(t, 1, in, fault.Policy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := chaosExecute(t, 8, in, fault.Policy{}, 1)
	if err != nil {
		t.Fatal(err)
	}

	if len(seq.Failures) == 0 {
		t.Fatal("injector produced no failures; retune seed/rates so the test exercises degradation")
	}
	if len(seq.Evaluated) == 0 {
		t.Fatal("no surviving evaluations")
	}
	if !reflect.DeepEqual(seq.Failures, par.Failures) {
		t.Fatalf("failure reports differ across worker counts:\n%v\n%v", seq.Failures, par.Failures)
	}
	if !reflect.DeepEqual(seq.Evaluated, par.Evaluated) {
		t.Fatal("surviving evaluations differ across worker counts")
	}
	if !reflect.DeepEqual(seq.ParetoIdx, par.ParetoIdx) {
		t.Fatalf("Pareto fronts differ: %v vs %v", seq.ParetoIdx, par.ParetoIdx)
	}
	if seq.HT != par.HT || seq.LP != par.LP || seq.HE != par.HE {
		t.Fatal("conventional picks differ across worker counts")
	}
	for i, e := range seq.Evaluated {
		if err := fault.CheckFinite("evaluation", e.FPS, e.RuntimeSec, e.SoCPowerW, e.SuccessRate); err != nil {
			t.Fatalf("survivor %d (%s) carries non-finite objectives: %v", i, e.Design, err)
		}
	}
	for _, f := range seq.Failures {
		if f.Kind != fault.KindError && f.Kind != fault.KindNumerical {
			t.Fatalf("unexpected failure kind for injected fault: %+v", f)
		}
	}
}

// TestExecuteRetryClearsInjectedFaults checks that retries — whose injection
// keys include the attempt index — recover designs that failed on their
// first attempt: the retried run must fail strictly fewer designs.
func TestExecuteRetryClearsInjectedFaults(t *testing.T) {
	in := &fault.Injector{Seed: 11, ErrorRate: 0.12}
	noRetry, err := chaosExecute(t, 4, in, fault.Policy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	withRetry, err := chaosExecute(t, 4, in, fault.Policy{Attempts: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(noRetry.Failures) == 0 {
		t.Fatal("baseline run has no failures; retune seed/rates")
	}
	if len(withRetry.Failures) >= len(noRetry.Failures) {
		t.Fatalf("retries did not reduce failures: %d with vs %d without",
			len(withRetry.Failures), len(noRetry.Failures))
	}
	for _, f := range withRetry.Failures {
		if f.Attempts != 3 {
			t.Fatalf("terminal failure %+v did not exhaust the 3-attempt budget", f)
		}
	}
}

// TestExecuteNilInjectorWithBudgetMatchesFailFast pins that merely enabling
// the degradation path (positive budget, no faults) is bitwise neutral.
func TestExecuteNilInjectorWithBudgetMatchesFailFast(t *testing.T) {
	clean := execute(t, 4)
	budgeted, err := chaosExecute(t, 4, nil, fault.Policy{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(budgeted.Failures) != 0 {
		t.Fatalf("fault-free run reported failures: %v", budgeted.Failures)
	}
	if !reflect.DeepEqual(clean.Evaluated, budgeted.Evaluated) {
		t.Fatal("failure budget perturbed a fault-free run's evaluations")
	}
	if !reflect.DeepEqual(clean.ParetoIdx, budgeted.ParetoIdx) {
		t.Fatal("failure budget perturbed a fault-free run's Pareto front")
	}
}

// TestExecuteFailureBudgetExceeded checks a blown budget surfaces as an
// error that carries the failure summary.
func TestExecuteFailureBudgetExceeded(t *testing.T) {
	in := &fault.Injector{Seed: 11, ErrorRate: 0.3}
	res, err := chaosExecute(t, 4, in, fault.Policy{}, 0.001)
	if err == nil {
		t.Fatal("sweep with ~30% injected failures passed a 0.1% budget")
	}
	if !strings.Contains(err.Error(), "failed") {
		t.Fatalf("budget error does not describe the failures: %v", err)
	}
	if res == nil || len(res.Failures) == 0 {
		t.Fatal("budget error must still return the failure report")
	}
}

// TestExecuteFailFastDeterministic checks that without a failure budget the
// run aborts with the lowest-index failure of the initial batch — the same
// error, naming the same design, at workers=1 and workers=8 — however the
// pool's goroutines happened to finish.
func TestExecuteFailFastDeterministic(t *testing.T) {
	in := &fault.Injector{Seed: 11, ErrorRate: 0.3}
	// With a budget every failure is recorded, the initial batch's first and
	// in index order, so the budgeted run names the design fail-fast must
	// report.
	degraded, err := chaosExecute(t, 4, in, fault.Policy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cands := DefaultSpace().Sample(cfg.CandidatePool, cfg.Seed)
	initial := map[string]bool{}
	for _, i := range tensor.NewRNG(cfg.BO.Seed).Perm(len(cands))[:cfg.BO.InitSamples] {
		initial[cands[i].String()] = true
	}
	initFailures := 0
	for _, f := range degraded.Failures {
		if initial[f.Job] {
			initFailures++
		}
	}
	if initFailures < 2 || !initial[degraded.Failures[0].Job] {
		t.Fatalf("want several failures in the initial batch, got %d of %v; retune seed/rate", initFailures, degraded.Failures)
	}
	want := degraded.Failures[0].Job

	var msgs []string
	for _, workers := range []int{1, 8} {
		res, err := chaosExecute(t, workers, in, fault.Policy{}, 0)
		if err == nil {
			t.Fatalf("workers=%d: fail-fast run with injected faults succeeded: %d evaluated", workers, len(res.Evaluated))
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("workers=%d: error %q does not name the lowest-index failure %s", workers, err, want)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("fail-fast errors differ across worker counts:\n%s\n%s", msgs[0], msgs[1])
	}
}

// TestRandomOptimizerHonoursFailureBudget checks that random search settles
// errors under the same policy as the Bayesian search: with a budget, failed
// designs degrade into Result.Failures instead of aborting the run, and the
// report is identical at any worker count.
func TestRandomOptimizerHonoursFailureBudget(t *testing.T) {
	in := &fault.Injector{Seed: 11, ErrorRate: 0.08, NaNRate: 0.08}
	run := func(workers int) *Result {
		t.Helper()
		res, err := Execute(context.Background(), Request{
			Space:         DefaultSpace(),
			DB:            surrogateDB(),
			Scenario:      airlearning.DenseObstacle,
			Power:         power.Default(),
			Config:        smallConfig(),
			Optimizer:     OptRandom,
			Workers:       workers,
			FailureBudget: 1,
			Injector:      in,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if len(seq.Failures) == 0 || len(seq.Evaluated) == 0 {
		t.Fatalf("%d failures, %d survivors; retune seed/rates", len(seq.Failures), len(seq.Evaluated))
	}
	if !reflect.DeepEqual(seq.Failures, par.Failures) || !reflect.DeepEqual(seq.Evaluated, par.Evaluated) {
		t.Fatal("random-search degradation differs across worker counts")
	}
}

// TestEvolutionaryOptimizersRefuseFailureBudget checks that the optimizers
// that cannot degrade (moea has no notion of a failed evaluation) refuse a
// failure budget up front instead of silently ignoring it.
func TestEvolutionaryOptimizersRefuseFailureBudget(t *testing.T) {
	for _, opt := range []Optimizer{OptGenetic, OptAnnealing, OptReinforce} {
		_, err := Execute(context.Background(), Request{
			Space:         DefaultSpace(),
			DB:            surrogateDB(),
			Scenario:      airlearning.DenseObstacle,
			Power:         power.Default(),
			Config:        smallConfig(),
			Optimizer:     opt,
			FailureBudget: 0.5,
		})
		if err == nil || !strings.Contains(err.Error(), "failure budget") {
			t.Errorf("%v: err = %v, want a failure-budget refusal", opt, err)
		}
	}
}
