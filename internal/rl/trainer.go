package rl

import (
	"fmt"

	"autopilot/internal/airlearning"
	"autopilot/internal/policy"
	"autopilot/internal/tensor"
	"autopilot/internal/train"
)

// Algorithm selects the RL method for Phase 1 training.
type Algorithm int

// Supported training algorithms.
const (
	AlgDQN Algorithm = iota
	AlgReinforce
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgDQN:
		return "dqn"
	case AlgReinforce:
		return "reinforce"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// TrainConfig parameterizes one Phase-1 training run.
type TrainConfig struct {
	Algorithm    Algorithm
	Episodes     int
	EvalEpisodes int
	Seed         int64
}

// DefaultTrainConfig returns a laptop-scale training budget.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Algorithm: AlgDQN, Episodes: 300, EvalEpisodes: 50, Seed: 1}
}

// Factory adapts cfg.Algorithm into the training engine's constructor seam:
// the returned train.Factory builds a fresh agent for each (hyper, seed)
// run. Construction is deterministic in the arguments alone — the same
// (hyper, seed) yields a bitwise-identical agent on any worker.
func Factory(cfg TrainConfig) train.Factory {
	return func(h policy.Hyper, seed int64) (train.Algorithm, error) {
		rng := tensor.NewRNG(seed)
		tcfg := policy.DefaultTrainable()
		switch cfg.Algorithm {
		case AlgDQN:
			dcfg := DefaultDQNConfig()
			if err := dcfg.Validate(); err != nil {
				return nil, err
			}
			online, err := policy.NewTrainable(h, tcfg, rng)
			if err != nil {
				return nil, err
			}
			target, err := policy.NewTrainable(h, tcfg, rng)
			if err != nil {
				return nil, err
			}
			return NewDQN(online, target, dcfg, seed), nil
		case AlgReinforce:
			model, err := policy.NewTrainable(h, tcfg, rng)
			if err != nil {
				return nil, err
			}
			return NewReinforce(model, DefaultReinforceConfig(), seed), nil
		default:
			return nil, fmt.Errorf("rl: unknown algorithm %v", cfg.Algorithm)
		}
	}
}

// Engine returns a single-worker training engine for cfg — the common
// wiring behind cmd/trainsim's single-run path. Call Train on it for one
// (hyper, scenario) run, or build a custom train.Config with Factory for
// sweeps.
func Engine(cfg TrainConfig) *train.Engine {
	return train.New(Factory(cfg), train.Config{
		Episodes:     cfg.Episodes,
		EvalEpisodes: cfg.EvalEpisodes,
		Seed:         cfg.Seed,
		Workers:      1,
	})
}

// runEpisodes drives an agent through the engine's shared episode loop and
// summarizes the run, keeping the historical Train tail statistics: mean
// return and success rate over the final 20% of episodes.
func runEpisodes(env *airlearning.Env, alg train.Algorithm, episodes int) TrainStats {
	var stats TrainStats
	tail := episodes / 5
	if tail == 0 {
		tail = 1
	}
	var tailReturn float64
	var tailWins int
	for ep := 0; ep < episodes; ep++ {
		res := train.RunTrainingEpisode(env, alg)
		stats.Steps += res.Steps
		if ep >= episodes-tail {
			tailReturn += res.Return
			if res.Outcome == airlearning.Success {
				tailWins++
			}
		}
	}
	stats.Episodes = episodes
	stats.MeanReturn = tailReturn / float64(tail)
	stats.SuccessRate = float64(tailWins) / float64(tail)
	return stats
}
