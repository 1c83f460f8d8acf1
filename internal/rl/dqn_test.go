package rl

import (
	"errors"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/policy"
	"autopilot/internal/tensor"
)

func TestDQNConfigValidate(t *testing.T) {
	if err := DefaultDQNConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	for _, tc := range []struct {
		field string
		set   func(*DQNConfig, int)
	}{
		{"EpsDecaySteps", func(c *DQNConfig, v int) { c.EpsDecaySteps = v }},
		{"BufferSize", func(c *DQNConfig, v int) { c.BufferSize = v }},
		{"BatchSize", func(c *DQNConfig, v int) { c.BatchSize = v }},
		{"TargetSync", func(c *DQNConfig, v int) { c.TargetSync = v }},
		{"UpdateEvery", func(c *DQNConfig, v int) { c.UpdateEvery = v }},
	} {
		for _, v := range []int{0, -3} {
			cfg := DefaultDQNConfig()
			tc.set(&cfg, v)
			var ce *ConfigError
			if err := cfg.Validate(); !errors.As(err, &ce) || ce.Field != tc.field || ce.Value != v {
				t.Errorf("%s = %d: Validate() = %v, want *ConfigError for %s", tc.field, v, err, tc.field)
			}
		}
	}
}

func TestNewDQNRejectsInvalidConfig(t *testing.T) {
	g := tensor.NewRNG(1)
	h := policy.Hyper{Layers: 2, Filters: 32}
	online, _ := policy.NewTrainable(h, policy.DefaultTrainable(), g)
	target, _ := policy.NewTrainable(h, policy.DefaultTrainable(), g)
	cfg := DefaultDQNConfig()
	cfg.UpdateEvery = 0
	defer func() {
		var ce *ConfigError
		if err, _ := recover().(error); !errors.As(err, &ce) || ce.Field != "UpdateEvery" {
			t.Fatalf("recovered %v, want *ConfigError for UpdateEvery", err)
		}
	}()
	NewDQN(online, target, cfg, 1)
}

// newUpdateFixture returns a DQN whose replay buffer holds real transitions
// of the L4F48 template, ready for update.
func newUpdateFixture(t testing.TB, double bool) *DQN {
	g := tensor.NewRNG(12)
	h := policy.Hyper{Layers: 4, Filters: 48}
	online, err := policy.NewTrainable(h, policy.DefaultTrainable(), g)
	if err != nil {
		t.Fatal(err)
	}
	target, err := policy.NewTrainable(h, policy.DefaultTrainable(), g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultDQNConfig()
	cfg.Double = double
	d := NewDQN(online, target, cfg, 12)
	env := airlearning.NewEnv(airlearning.LowObstacle, 12)
	obs := env.Reset()
	for i := 0; i < 64; i++ {
		a := d.rng.Intn(airlearning.NumActions)
		next, r, done := env.Step(a)
		d.buffer.Add(Transition{Obs: obs, Action: a, Reward: r, Next: next, Done: done})
		obs = next
		if done {
			obs = env.Reset()
		}
	}
	return d
}

// TestDQNUpdateAllocatesNothing: after one warm-up update has sized the
// network workspaces, the Adam moments and the minibatch slice, a
// minibatch Q-learning step allocates nothing.
func TestDQNUpdateAllocatesNothing(t *testing.T) {
	for _, double := range []bool{false, true} {
		d := newUpdateFixture(t, double)
		d.update()
		if allocs := testing.AllocsPerRun(10, d.update); allocs != 0 {
			t.Fatalf("double=%v: update allocates %.1f times, want 0", double, allocs)
		}
	}
}
