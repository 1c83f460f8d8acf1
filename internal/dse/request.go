package dse

import (
	"context"
	"errors"
	"fmt"

	"autopilot/internal/airlearning"
	"autopilot/internal/bayesopt"
	"autopilot/internal/fault"
	"autopilot/internal/obs"
	"autopilot/internal/power"
)

// Request bundles everything a Phase-2 run needs, and is the one way to
// configure its evaluator (see NewEvaluator).
type Request struct {
	// Space is the joint model/accelerator search space (Table II); its
	// Template is the E2E model template networks are built from.
	Space Space
	// DB is the Phase-1 validated-policy database success rates come from.
	DB *airlearning.Database
	// Scenario selects the deployment scenario scored against.
	Scenario airlearning.Scenario
	// Power is the technology power model.
	Power power.Model
	// Config sets the search budget and seeding policy.
	Config Config
	// Optimizer selects the search method; the zero value is OptBayesian.
	Optimizer Optimizer
	// Workers bounds the evaluation worker pool; <= 0 means runtime.NumCPU().
	// Results are bitwise deterministic regardless of the worker count.
	Workers int

	// Vehicle is the mission/thermal context for spaces with vehicle axes;
	// the zero value selects the defaults. SoC-only spaces never consult it.
	Vehicle VehicleParams

	// Retry is the per-design retry policy (attempts, backoff, per-attempt
	// Timeout); the zero value performs a single attempt per design.
	// Retried attempts re-key the fault surfaces by attempt index, so a
	// fault that clears on retry still yields the deterministic estimate.
	Retry fault.Policy
	// FailureBudget is the fraction of evaluations allowed to fail (after
	// retries) before the run errors. 0 is fail-fast: the run aborts with
	// the lowest-index failure of the batch that failed. A positive budget
	// records failed designs in Result.Failures, feeds the optimizer
	// survivors only, and completes the run as long as the failed fraction
	// stays within budget. Only the Bayesian and random optimizers honour
	// it; the others refuse a positive budget.
	FailureBudget float64
	// Injector deterministically injects faults into backend evaluations for
	// chaos testing; nil injects nothing.
	Injector *fault.Injector
	// Delegate, when non-nil, routes every uncached design evaluation
	// through a remote executor (the grid coordinator's lease pool) instead
	// of the local backend. Memoization, dedup and skip/failure accounting
	// stay local, and returned errors are settled exactly as local ones.
	Delegate func(ctx context.Context, d DesignPoint) (Evaluated, error)
	// Obs, when non-nil, instruments the run: cache hits/misses/dedups
	// (dse.cache.*), estimate latency (hw.estimate_seconds), terminal
	// evaluation failures, search/eval trace spans and retry counters. nil
	// disables instrumentation; scores are bitwise identical either way.
	Obs *obs.Observer
}

// Validate checks the request.
func (r Request) Validate() error {
	if err := r.Space.Validate(); err != nil {
		return err
	}
	if r.DB == nil {
		return fmt.Errorf("dse: nil database")
	}
	if r.Config.CandidatePool < 2 {
		return fmt.Errorf("dse: candidate pool %d too small", r.Config.CandidatePool)
	}
	return nil
}

// Execute runs Phase 2 for a request: sample the space, explore it with the
// requested optimizer, and label the conventional-DSE picks. Design
// evaluations fan out over a bounded worker pool but are re-assembled in
// submission order before Pareto extraction, so the result is bitwise
// deterministic for a given seed regardless of Workers. Cancelling the
// context drains the pool and returns an error wrapping ctx.Err().
//
// Each evaluation runs under the request's retry policy with panic
// isolation. With a zero FailureBudget an exhausted evaluation aborts the
// search (fail-fast) once its batch is in, reporting the batch's
// lowest-index failure; a positive budget records failed designs in
// Result.Failures, feeds the optimizer the survivors, and errors only when
// the failed fraction exceeds the budget.
func Execute(ctx context.Context, req Request) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	ctx = obs.NewContext(ctx, req.Obs)
	sp := obs.StartStep(ctx, "dse "+req.Scenario.String(), "dse")
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	if req.Optimizer != OptBayesian {
		return executeAlternate(ctx, req)
	}
	cfg := req.Config
	cands := req.Space.Sample(cfg.CandidatePool, cfg.Seed)
	ev := req.NewEvaluator()

	feats := make([][]float64, len(cands))
	for i, d := range cands {
		feats[i] = req.Space.Features(d)
	}

	// A fatal evaluation error cancels the optimizer promptly instead of
	// letting it keep modeling garbage, and is reported afterwards.
	ectx, cancel := context.WithCancel(ctx)
	defer cancel()
	res := &Result{Scenario: req.Scenario}
	var evalErr error
	problem := bayesopt.Problem{
		Candidates: feats,
		// The optimizer records survivors in the order this hook appends
		// them to res.Evaluated: the initial batch in index order, then one
		// model-guided pick per call.
		Evaluate: func(indices []int) [][]float64 {
			ds := make([]DesignPoint, len(indices))
			for j, i := range indices {
				ds[j] = cands[i]
			}
			ys, err := req.settle(ectx, ev, res, ds, "")
			if err != nil {
				evalErr = err
				cancel()
			}
			return ys
		},
		NumObjectives: 3,
		// the acquisition scores candidates on the evaluator's workers
		Workers: ev.Workers(),
		// ref: success can only improve hypervolume down to -1; power tops
		// out near the biggest SoC; runtime near the slowest design. In a
		// vehicle space the power objective is the full-vehicle draw (rotors
		// dominate, hundreds of watts) and the third objective is −missions.
		Ref: []float64{0, 30, 1},
	}
	if req.Space.HasVehicleAxes() {
		problem.Ref = []float64{0, 600, 0}
	}
	_, err := bayesopt.OptimizeContext(ectx, problem, cfg.BO)
	if evalErr != nil {
		return nil, evalErr
	}
	if err != nil {
		return nil, err
	}
	return finishResult(ctx, res, req, ev)
}

// settle scores ds on ev and settles every per-design error under the run's
// one policy: a typed infeasibility verdict becomes a Skip; any other error
// becomes a Failure (named label+design) under a positive budget, unless it
// is a cancellation; everything else is fatal. Survivors are appended to
// res.Evaluated in ds order, and their objective vectors are returned at
// their index (nil where the design was skipped or failed) — the bayesopt
// hook's contract. The error is the lowest-index fatal failure, so fail-fast
// runs report the same design at any worker count, or the cancellation.
func (r Request) settle(ctx context.Context, ev *Evaluator, res *Result, ds []DesignPoint, label string) ([][]float64, error) {
	es, errs, ys := make([]Evaluated, len(ds)), make([]error, len(ds)), make([][]float64, len(ds))
	if err := ev.Evaluate(ctx, ds, 0, es, errs); err != nil {
		return ys, err
	}
	for i, err := range errs {
		sk, skip := asSkip(ds[i], err)
		switch {
		case err == nil:
			res.Evaluated = append(res.Evaluated, es[i])
			ys[i] = es[i].Objectives()
		case skip:
			res.Skips = append(res.Skips, sk)
		case r.FailureBudget > 0 && ctx.Err() == nil && !errors.Is(err, context.Canceled):
			res.Failures = append(res.Failures, fault.NewFailure(label+ds[i].String(), err))
		default:
			return ys, err
		}
	}
	return ys, nil
}
