package rl

import (
	"fmt"
	"math"

	"autopilot/internal/airlearning"
	"autopilot/internal/nn"
	"autopilot/internal/tensor"
)

// DQNConfig holds the DQN hyper-parameters.
type DQNConfig struct {
	Gamma         float64 // discount factor
	LR            float64 // Adam learning rate
	EpsStart      float64 // initial exploration rate
	EpsEnd        float64 // final exploration rate
	EpsDecaySteps int     // env steps over which epsilon anneals linearly
	BufferSize    int     // replay capacity
	BatchSize     int     // transitions per update
	TargetSync    int     // env steps between target-network syncs
	LearnStart    int     // env steps before updates begin
	UpdateEvery   int     // env steps between gradient updates
	MaxGradNorm   float64 // gradient clipping threshold
	Double        bool    // Double DQN: online net selects, target net evaluates
}

// DefaultDQNConfig returns settings tuned for the grid-world navigation task.
func DefaultDQNConfig() DQNConfig {
	return DQNConfig{
		Gamma:         0.97,
		LR:            1e-3,
		EpsStart:      1.0,
		EpsEnd:        0.05,
		EpsDecaySteps: 4000,
		BufferSize:    5000,
		BatchSize:     16,
		TargetSync:    250,
		LearnStart:    200,
		UpdateEvery:   2,
		MaxGradNorm:   5,
	}
}

// ConfigError reports a DQNConfig field whose value would break training:
// an integer divide by zero, a NaN exploration rate or a replay buffer that
// cannot hold anything.
type ConfigError struct {
	Field string // DQNConfig field name
	Value int    // the rejected value
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("rl: invalid DQN config: %s = %d, must be positive", e.Field, e.Value)
}

// Validate reports the first field that must be positive but is not, as a
// *ConfigError.
func (c DQNConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"EpsDecaySteps", c.EpsDecaySteps},
		{"BufferSize", c.BufferSize},
		{"BatchSize", c.BatchSize},
		{"TargetSync", c.TargetSync},
		{"UpdateEvery", c.UpdateEvery},
	} {
		if f.v <= 0 {
			return &ConfigError{Field: f.name, Value: f.v}
		}
	}
	return nil
}

// DQN is a Deep Q-Network agent over the multi-modal policy template.
type DQN struct {
	Online *nn.MultiModal
	Target *nn.MultiModal

	cfg    DQNConfig
	opt    *nn.Adam
	buffer *ReplayBuffer
	rng    *tensor.RNG
	steps  int

	// Update workspace: the online network's parameter and gradient lists
	// (resolved once per network) and the one-hot output gradient.
	net           *nn.MultiModal
	params, grads []*tensor.Tensor
	grad          *tensor.Tensor
}

// NewDQN wraps an online/target network pair. The target is immediately
// synchronized to the online network. cfg must pass Validate; NewDQN panics
// with the *ConfigError otherwise (Factory returns it as an error instead).
func NewDQN(online, target *nn.MultiModal, cfg DQNConfig, seed int64) *DQN {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	target.CopyParamsFrom(online)
	return &DQN{
		Online: online,
		Target: target,
		cfg:    cfg,
		opt:    nn.NewAdam(cfg.LR),
		buffer: NewReplayBuffer(cfg.BufferSize),
		rng:    tensor.NewRNG(seed),
	}
}

// Epsilon returns the current exploration rate.
func (d *DQN) Epsilon() float64 {
	frac := float64(d.steps) / float64(d.cfg.EpsDecaySteps)
	if frac > 1 {
		frac = 1
	}
	return d.cfg.EpsStart + frac*(d.cfg.EpsEnd-d.cfg.EpsStart)
}

// Act selects an epsilon-greedy action.
func (d *DQN) Act(obs airlearning.Observation) int {
	if d.rng.Float64() < d.Epsilon() {
		return d.rng.Intn(airlearning.NumActions)
	}
	return d.Greedy(obs)
}

// Greedy returns the argmax-Q action.
func (d *DQN) Greedy(obs airlearning.Observation) int {
	return d.Online.Forward(obs.Image, obs.State).ArgMax()
}

// Name identifies the algorithm for the training engine's progress reports.
func (d *DQN) Name() string { return AlgDQN.String() }

// Policy returns the frozen greedy deployment policy, safe for concurrent
// batched evaluation rollouts.
func (d *DQN) Policy() airlearning.Policy {
	return GreedyPolicy{Net: d.Online}
}

// Observe records a transition and runs updates on schedule — the hook the
// training engine streams rollout transitions into.
func (d *DQN) Observe(t Transition) {
	d.buffer.Add(t)
	d.steps++
	if d.steps >= d.cfg.LearnStart && d.steps%d.cfg.UpdateEvery == 0 {
		d.update()
	}
	if d.steps%d.cfg.TargetSync == 0 {
		d.Target.CopyParamsFrom(d.Online)
	}
}

// EndEpisode is a no-op: DQN updates on its per-step schedule.
func (d *DQN) EndEpisode(airlearning.EpisodeResult) {}

// update performs one minibatch Q-learning step.
func (d *DQN) update() {
	if d.net != d.Online {
		d.net, d.params, d.grads = d.Online, d.Online.Params(), d.Online.Grads()
	}
	batch := d.buffer.Sample(d.rng, d.cfg.BatchSize)
	for _, g := range d.grads {
		g.Zero()
	}
	for _, t := range batch {
		target := t.Reward
		if !t.Done {
			tq := d.Target.Forward(t.Next.Image, t.Next.State)
			if d.cfg.Double {
				// Double DQN: decouple action selection (online) from value
				// estimation (target) to curb maximization bias.
				a := d.Online.Forward(t.Next.Image, t.Next.State).ArgMax()
				target += d.cfg.Gamma * tq.Data()[a]
			} else {
				best, _ := tq.Max()
				target += d.cfg.Gamma * best
			}
		}
		q := d.Online.Forward(t.Obs.Image, t.Obs.State)
		// gradient only on the taken action, Huber-style
		if d.grad == nil || d.grad.Len() != q.Len() {
			d.grad = tensor.New(q.Len())
		}
		gd := d.grad.Data()
		clear(gd)
		diff := q.Data()[t.Action] - target
		gd[t.Action] = clamp(diff, -1, 1) / float64(len(batch))
		d.Online.Backward(d.grad)
	}
	nn.ClipGrads(d.grads, d.cfg.MaxGradNorm)
	d.opt.Step(d.params, d.grads)
}

// TrainStats summarizes a training run.
type TrainStats struct {
	Episodes    int
	Steps       int
	MeanReturn  float64 // mean return over the last 20% of episodes
	SuccessRate float64 // success over the last 20% of episodes
}

// Train runs the agent for the given number of episodes and returns stats.
// The episode loop is the engine's shared one (train.RunTrainingEpisode);
// Train remains for direct, single-run use.
func (d *DQN) Train(env *airlearning.Env, episodes int) TrainStats {
	return runEpisodes(env, d, episodes)
}

func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}
