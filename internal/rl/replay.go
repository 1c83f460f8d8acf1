// Package rl implements the reinforcement-learning algorithms Phase 1 uses
// to train E2E navigation policies on the airlearning simulator: DQN with a
// replay buffer and target network, and REINFORCE with a baseline. Both
// operate on the multi-modal policy template and plug into the Phase-1
// training engine (internal/train) behind its Algorithm interface, via
// Factory.
package rl

import (
	"autopilot/internal/airlearning"
	"autopilot/internal/tensor"
)

// Transition is one (s, a, r, s', done) tuple. It is an alias for the
// environment-level airlearning.Transition the training engine streams.
type Transition = airlearning.Transition

// ReplayBuffer is a fixed-capacity ring buffer of transitions.
type ReplayBuffer struct {
	data  []Transition
	idx   int
	n     int
	batch []Transition // Sample's result, reused
}

// NewReplayBuffer returns a buffer holding at most capacity transitions.
func NewReplayBuffer(capacity int) *ReplayBuffer {
	if capacity <= 0 {
		panic("rl: replay buffer capacity must be positive")
	}
	return &ReplayBuffer{data: make([]Transition, capacity)}
}

// Add appends a transition, evicting the oldest once full.
func (b *ReplayBuffer) Add(t Transition) {
	b.data[b.idx] = t
	b.idx = (b.idx + 1) % len(b.data)
	if b.n < len(b.data) {
		b.n++
	}
}

// Len returns the number of stored transitions.
func (b *ReplayBuffer) Len() int { return b.n }

// Sample draws n transitions uniformly with replacement. The returned slice
// belongs to the buffer and is overwritten by the next Sample call.
func (b *ReplayBuffer) Sample(g *tensor.RNG, n int) []Transition {
	if b.n == 0 {
		return nil
	}
	if cap(b.batch) < n {
		b.batch = make([]Transition, n)
	}
	out := b.batch[:n]
	for i := range out {
		out[i] = b.data[g.Intn(b.n)]
	}
	return out
}
