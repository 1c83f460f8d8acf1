package dse

import (
	"context"
	"errors"
	"fmt"
	"time"

	"autopilot/internal/airlearning"
	"autopilot/internal/bayesopt"
	"autopilot/internal/fault"
	"autopilot/internal/obs"
	"autopilot/internal/power"
)

// Request bundles everything a Phase-2 run needs. It replaces the positional
// arguments of the deprecated Run/RunWith entry points, so new knobs (worker
// count, optimizer choice) extend the API without breaking callers.
type Request struct {
	// Space is the joint model/accelerator search space (Table II).
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

	// Retry is the per-design retry policy; the zero value performs a single
	// attempt per design (identical to the pre-retry engine).
	Retry fault.Policy
	// JobTimeout bounds each evaluation attempt; 0 means unbounded. It
	// composes with Retry (a timed-out attempt is retryable).
	JobTimeout time.Duration
	// FailureBudget is the fraction of evaluations allowed to fail (after
	// retries) before the run errors. 0 preserves fail-fast: the first
	// evaluation error aborts the search. A positive budget records failed
	// designs in Result.Failures, feeds the optimizer survivors only, and
	// completes the run as long as the failed fraction stays within budget.
	FailureBudget float64
	// Injector deterministically injects faults into backend evaluations for
	// chaos testing; nil injects nothing.
	Injector *fault.Injector
	// Delegate, when non-nil, routes every uncached design evaluation
	// through a remote executor (the grid coordinator's lease pool) instead
	// of the local backend. Memoization, dedup and skip/failure accounting
	// stay local; see dse.WithDelegate.
	Delegate func(ctx context.Context, d DesignPoint) (Evaluated, error)
	// Obs, when non-nil, instruments the run: cache and estimate telemetry on
	// its registry, search/eval trace spans, retry counters. nil disables
	// instrumentation; scores are bitwise identical either way.
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

// evaluator builds the request's shared concurrent evaluator.
func (r Request) evaluator() *Evaluator {
	opts := []Option{WithTemplate(r.Space.Template), WithWorkers(r.Workers), WithRetry(r.Retry)}
	if r.Vehicle != (VehicleParams{}) {
		opts = append(opts, WithVehicle(r.Vehicle))
	}
	if r.JobTimeout > 0 {
		opts = append(opts, WithJobTimeout(r.JobTimeout))
	}
	if r.Injector != nil {
		opts = append(opts, WithInjector(r.Injector))
	}
	if r.Delegate != nil {
		opts = append(opts, WithDelegate(r.Delegate))
	}
	if r.Obs != nil {
		opts = append(opts, WithObs(r.Obs))
	}
	return NewEvaluator(r.DB, r.Scenario, r.Power, opts...)
}

// NewEvaluator builds the request's evaluator without running a search. Grid
// workers use it to score individual design points with exactly the engine a
// local Execute would have used (same retry policy, injector keys, memoization
// and telemetry), which is what keeps remote evaluation bitwise identical to
// local evaluation.
func (r Request) NewEvaluator() *Evaluator { return r.evaluator() }

// Execute runs Phase 2 for a request: sample the space, explore it with the
// requested optimizer, and label the conventional-DSE picks. Design
// evaluations fan out over a bounded worker pool but are re-assembled in
// submission order before Pareto extraction, so the result is bitwise
// deterministic for a given seed regardless of Workers. Cancelling the
// context drains the pool and returns an error wrapping ctx.Err().
//
// Each evaluation runs under the request's retry policy with panic
// isolation. With a zero FailureBudget the first exhausted evaluation aborts
// the search (fail-fast); a positive budget records failed designs in
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
	ev := req.evaluator()

	feats := make([][]float64, len(cands))
	for i, d := range cands {
		feats[i] = req.Space.Features(d)
	}

	// In fail-fast mode evaluation failures cancel the optimizer promptly
	// instead of letting it keep modeling garbage; the first error is
	// reported afterwards. With a failure budget, failed designs become
	// Failure records and nil objective vectors the optimizer skips.
	ectx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(map[int]Evaluated, cfg.BO.InitSamples+cfg.BO.Iterations)
	var failures []fault.Failure
	var skips []Skip
	var evalErr error
	fail := func(err error) {
		if evalErr == nil {
			evalErr = err
			cancel()
		}
	}
	// degrade records one failed design; returns false when the error is a
	// cancellation (which stays terminal even under a budget).
	degrade := func(i int, err error) bool {
		if errors.Is(err, context.Canceled) || errors.Is(err, ctx.Err()) {
			return false
		}
		failures = append(failures, fault.NewFailure(cands[i].String(), err))
		return true
	}
	// skip records a typed infeasible-loadout verdict: the candidate is
	// consumed with a nil objective vector (never scored, never modeled) and
	// lands in Result.Skips rather than Failures, budget or not.
	skip := func(i int, err error) bool {
		sk, ok := asSkip(cands[i], err)
		if ok {
			skips = append(skips, sk)
		}
		return ok
	}
	problem := bayesopt.Problem{
		Candidates: feats,
		// Evaluate serves the sequential model-guided iterations.
		Evaluate: func(i int) []float64 {
			e, err := ev.EvaluateContext(ectx, cands[i])
			if err != nil {
				if skip(i, err) {
					return nil
				}
				if req.FailureBudget > 0 && degrade(i, err) {
					return nil
				}
				fail(err)
				results[i] = e
				return e.Objectives()
			}
			results[i] = e
			return e.Objectives()
		},
		// EvaluateBatch scores the initial samples concurrently; the
		// optimizer records them in submission order.
		EvaluateBatch: func(indices []int) [][]float64 {
			ds := make([]DesignPoint, len(indices))
			for j, i := range indices {
				ds[j] = cands[i]
			}
			ys := make([][]float64, len(indices))
			if req.FailureBudget > 0 || req.Space.HasVehicleAxes() {
				es, errs, err := ev.EvaluateEach(ectx, ds)
				if err != nil {
					fail(err)
					return ys
				}
				for j, i := range indices {
					if errs[j] != nil {
						if skip(i, errs[j]) {
							continue
						}
						if req.FailureBudget > 0 && degrade(i, errs[j]) {
							continue
						}
						fail(errs[j])
						return ys
					}
					results[i] = es[j]
					ys[j] = es[j].Objectives()
				}
				return ys
			}
			es, err := ev.EvaluateAll(ectx, ds)
			if err != nil {
				fail(err)
				es = make([]Evaluated, len(indices))
			}
			for j, e := range es {
				results[indices[j]] = e
				ys[j] = e.Objectives()
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
	boRes, err := bayesopt.OptimizeContext(ectx, problem, cfg.BO)
	if evalErr != nil {
		return nil, evalErr
	}
	if err != nil {
		return nil, err
	}

	res := &Result{Scenario: req.Scenario, Failures: failures, Skips: skips}
	for _, e := range boRes.Evaluations {
		res.Evaluated = append(res.Evaluated, results[e.Index])
	}
	res, err = finishResult(ctx, res, req, ev)
	if err != nil {
		return nil, err
	}
	if req.FailureBudget > 0 {
		attempted := len(res.Evaluated) + len(res.Failures)
		if attempted > 0 {
			if frac := float64(len(res.Failures)) / float64(attempted); frac > req.FailureBudget {
				return res, fmt.Errorf("dse: %d/%d evaluations failed (%.0f%% > budget %.0f%%)\n%s",
					len(res.Failures), attempted, frac*100, req.FailureBudget*100,
					fault.Summarize(res.Failures))
			}
		}
	}
	return res, nil
}
