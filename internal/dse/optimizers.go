package dse

import (
	"context"
	"fmt"

	"autopilot/internal/moea"
	"autopilot/internal/space"
)

// Optimizer selects the Phase-2 search method. The paper uses Bayesian
// optimization but notes it "can be replaced with reinforcement learning,
// evolutionary algorithms, simulated annealing etc." (§III-B); the GA and SA
// alternatives are provided for the ablation studies.
type Optimizer int

// Available Phase-2 optimizers.
const (
	OptBayesian Optimizer = iota
	OptGenetic
	OptAnnealing
	OptReinforce
	OptRandom
)

// String names the optimizer.
func (o Optimizer) String() string {
	switch o {
	case OptBayesian:
		return "bayesian"
	case OptGenetic:
		return "genetic"
	case OptAnnealing:
		return "annealing"
	case OptReinforce:
		return "reinforce"
	case OptRandom:
		return "random"
	default:
		return fmt.Sprintf("Optimizer(%d)", int(o))
	}
}

// ChoiceDims returns the cardinality of each searched dimension, the genome
// layout used by the evolutionary optimizers — the parameter space's axis
// cardinalities in axis order (an optional leading algorithm gene, then
// layers, filters, PE rows, PE cols, and the three scratchpad sizes).
func (s Space) ChoiceDims() []int {
	return s.ParamSpace().Dims()
}

// FromChoices materializes a design point from a choice-index genome. A
// genome is exactly a space.Point of the backing parameter space.
func (s Space) FromChoices(g []int) (DesignPoint, error) {
	dims := s.ChoiceDims()
	if len(g) != len(dims) {
		return DesignPoint{}, fmt.Errorf("dse: genome length %d, want %d", len(g), len(dims))
	}
	d, err := s.FromPoint(space.Point(g))
	if err != nil {
		return DesignPoint{}, err
	}
	return d, nil
}

// Enumerate materializes every design point of the space in the parameter
// layer's deterministic enumeration order (last axis fastest — the legacy
// nested-loop order). It refuses spaces above the limit — exhaustive sweeps
// are only tractable on pinned or reduced spaces (the paper's Phase 2
// exists because the full space is ~10^18). A limit of 0 defaults to 65536
// points.
func (s Space) Enumerate(limit int64) ([]DesignPoint, error) {
	ps := s.ParamSpace()
	pts, err := ps.Enumerate(limit)
	if err != nil {
		return nil, fmt.Errorf("dse: %w", err)
	}
	out := make([]DesignPoint, len(pts))
	for i, p := range pts {
		d, err := s.FromPoint(p)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// executeAlternate serves Execute for the non-Bayesian optimizers. The
// evolutionary searchers evaluate sequentially (each step depends on the
// previous population) and fail fast: moea has no notion of a failed
// evaluation, so they refuse a failure budget rather than ignore it. The
// random searcher — whose sample set is fixed up front — fans out over the
// worker pool and settles errors under the run's policy like Execute.
func executeAlternate(ctx context.Context, req Request) (*Result, error) {
	if req.Space.HasVehicleAxes() {
		return nil, fmt.Errorf("dse: vehicle axes require the Bayesian optimizer")
	}
	if req.FailureBudget > 0 && req.Optimizer != OptRandom {
		return nil, fmt.Errorf("dse: the %v optimizer cannot honour a failure budget (use bayesian or random)", req.Optimizer)
	}
	space, cfg, scen := req.Space, req.Config, req.Scenario
	ev := req.NewEvaluator()
	budget := cfg.BO.InitSamples + cfg.BO.Iterations

	var evalErr error
	evaluated := map[string]Evaluated{}
	problem := moea.Problem{
		Dims: space.ChoiceDims(),
		Evaluate: func(g []int) []float64 {
			d, err := space.FromChoices(g)
			if err != nil {
				panic(err) // genome generated from Dims: impossible
			}
			e, err := ev.evaluate(ctx, d, 0)
			if err != nil && evalErr == nil {
				evalErr = err
			}
			evaluated[d.String()] = e
			return e.Objectives()
		},
		NumObjectives: 3,
		Ref:           []float64{0, 30, 1},
	}

	var inds []moea.Individual
	switch req.Optimizer {
	case OptGenetic:
		gaCfg := moea.DefaultGAConfig()
		gaCfg.MaxEvals = budget
		gaCfg.Seed = cfg.Seed
		res, err := moea.NSGA2(problem, gaCfg)
		if err != nil {
			return nil, err
		}
		inds = res.Evaluations
	case OptAnnealing:
		saCfg := moea.DefaultSAConfig()
		saCfg.MaxEvals = budget
		saCfg.Seed = cfg.Seed
		saCfg.Steps = budget / saCfg.Chains
		res, err := moea.Anneal(problem, saCfg)
		if err != nil {
			return nil, err
		}
		inds = res.Evaluations
	case OptReinforce:
		rlCfg := moea.DefaultRLConfig()
		rlCfg.MaxEvals = budget
		rlCfg.Seed = cfg.Seed
		res, err := moea.Reinforce(problem, rlCfg)
		if err != nil {
			return nil, err
		}
		inds = res.Evaluations
	case OptRandom:
		res := &Result{Scenario: scen}
		if _, err := req.settle(ctx, ev, res, space.Sample(budget, cfg.Seed), ""); err != nil {
			return nil, err
		}
		return finishResult(ctx, res, req, ev)
	default:
		return nil, fmt.Errorf("dse: unknown optimizer %v", req.Optimizer)
	}
	if evalErr != nil {
		return nil, evalErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dse: cancelled: %w", err)
	}

	res := &Result{Scenario: scen}
	for _, ind := range inds {
		d, err := space.FromChoices(ind.Genome)
		if err != nil {
			return nil, err
		}
		res.Evaluated = append(res.Evaluated, evaluated[d.String()])
	}
	return finishResult(ctx, res, req, ev)
}
