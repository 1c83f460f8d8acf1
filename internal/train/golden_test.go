package train_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strconv"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/nn"
	"autopilot/internal/policy"
	"autopilot/internal/rl"
	"autopilot/internal/train"
)

// gx parses an exact hex-float literal captured from a reference run of the
// training engine (PR 3), in the style of internal/dse/golden_test.go.
func gx(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad golden literal %q: %v", s, err)
	}
	return v
}

// goldenPhase1 pins a small real Phase1Train database: two template points
// trained with DQN for 60 episodes on the low-obstacle scenario. Equality is
// bitwise (==, not a tolerance) and must hold at every worker count — the
// engine's determinism contract says training arithmetic depends only on the
// (hyper, seed) identity, never on scheduling.
var goldenPhase1 = []struct {
	hyper policy.Hyper
	succ  string
	steps int
}{
	{hyper: policy.Hyper{Layers: 2, Filters: 32}, succ: "0x1.999999999999ap-04", steps: 766},
	{hyper: policy.Hyper{Layers: 3, Filters: 32}, succ: "0x0p+00", steps: 893},
}

func TestPhase1TrainGoldenDatabase(t *testing.T) {
	hypers := make([]policy.Hyper, len(goldenPhase1))
	for i, g := range goldenPhase1 {
		hypers[i] = g.hyper
	}
	cfg := rl.TrainConfig{Algorithm: rl.AlgDQN, Episodes: 60, EvalEpisodes: 20, Seed: 1}
	for _, workers := range []int{1, 8} {
		db := airlearning.NewDatabase()
		eng := train.New(rl.Factory(cfg), train.Config{
			Episodes:     cfg.Episodes,
			EvalEpisodes: cfg.EvalEpisodes,
			Seed:         cfg.Seed,
			Workers:      workers,
		})
		if _, err := eng.Sweep(context.Background(), hypers, airlearning.LowObstacle, db); err != nil {
			t.Fatal(err)
		}
		for _, g := range goldenPhase1 {
			rec, ok := db.Get(g.hyper, airlearning.LowObstacle)
			if !ok {
				t.Fatalf("workers=%d: no record for %s", workers, g.hyper)
			}
			if want := gx(t, g.succ); rec.SuccessRate != want {
				t.Errorf("workers=%d %s: success rate %x, want %s", workers, g.hyper, rec.SuccessRate, g.succ)
			}
			if rec.TrainSteps != g.steps {
				t.Errorf("workers=%d %s: %d env steps, want %d", workers, g.hyper, rec.TrainSteps, g.steps)
			}
		}
	}
}

// goldenPolicies pins two single training runs by their trained parameters,
// not only by the coarse success rate: a sha256 over the IEEE-754 bits of
// every parameter in Params order, plus the validated success rate and the
// training step count. The DQN point is the 6-channel, three-conv trunk
// (stride-2 stem, then two stride-1 convs); the REINFORCE point exercises
// the same Forward/Backward through the policy-gradient update. Equality is
// bitwise at workers 1 and 8: the worker count only fans out evaluation.
var goldenPolicies = []struct {
	alg      rl.Algorithm
	hyper    policy.Hyper
	episodes int
	succ     string
	steps    int
	params   string
}{
	{alg: rl.AlgDQN, hyper: policy.Hyper{Layers: 7, Filters: 48}, episodes: 80,
		succ: "0x1.999999999999ap-05", steps: 872,
		params: "b551bfc3f3f4da41b10bbd869d61abdfd573f97bb60cb8c50e4f0462174e176f"},
	{alg: rl.AlgReinforce, hyper: policy.Hyper{Layers: 2, Filters: 32}, episodes: 60,
		succ: "0x1.999999999999ap-05", steps: 869,
		params: "67db39403c293b7552d12e39799ee3a981c3ef2ab5ead368d9ecd74b6011ddf4"},
}

// paramDigest hashes the network's parameters bit for bit.
func paramDigest(net *nn.MultiModal) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range net.Params() {
		for _, v := range p.Data() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPhase1TrainGoldenPolicies(t *testing.T) {
	for _, g := range goldenPolicies {
		for _, workers := range []int{1, 8} {
			cfg := rl.TrainConfig{Algorithm: g.alg, Episodes: g.episodes, EvalEpisodes: 20, Seed: 3}
			eng := train.New(rl.Factory(cfg), train.Config{
				Episodes:     cfg.Episodes,
				EvalEpisodes: cfg.EvalEpisodes,
				Seed:         cfg.Seed,
				Workers:      workers,
			})
			rec, pol, err := eng.Train(context.Background(), g.hyper, airlearning.LowObstacle)
			if err != nil {
				t.Fatal(err)
			}
			greedy, ok := pol.(rl.GreedyPolicy)
			if !ok {
				t.Fatalf("%v %s: policy %T, want rl.GreedyPolicy", g.alg, g.hyper, pol)
			}
			if want := gx(t, g.succ); rec.SuccessRate != want {
				t.Errorf("workers=%d %v %s: success rate %x, want %s", workers, g.alg, g.hyper, rec.SuccessRate, g.succ)
			}
			if rec.TrainSteps != g.steps {
				t.Errorf("workers=%d %v %s: %d env steps, want %d", workers, g.alg, g.hyper, rec.TrainSteps, g.steps)
			}
			if got := paramDigest(greedy.Net); got != g.params {
				t.Errorf("workers=%d %v %s: parameter digest %s, want %s", workers, g.alg, g.hyper, got, g.params)
			}
		}
	}
}
