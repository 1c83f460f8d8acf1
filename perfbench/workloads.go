package main

import (
	"math/rand"

	"autopilot/internal/api"
)

// size scales the workloads: full is what the benchmark measures, tiny is
// what its tests run so that a smoke run of every workload takes seconds.
type size struct {
	// defaultPool and defaultIters override the default request's budgets;
	// 0 keeps api.DefaultRequest's (pool 2048, 72 iterations).
	defaultPool, defaultIters int
	// Phase-1 training budget and Phase-2 budgets of train-phase1.
	trainEpisodes, trainEval int
	trainPool, trainIters    int
	// mixPool and mixIters are the ranges the service-mix stream draws
	// candidate pools and BO iterations from; mixLen is the stream's length.
	mixPool, mixIters [2]int
	mixLen            int
}

var (
	full = size{
		trainEpisodes: 150, trainEval: 50, trainPool: 256, trainIters: 8,
		mixPool: [2]int{128, 512}, mixIters: [2]int{4, 16},
		mixLen: 1024,
	}
	tiny = size{
		defaultPool: 128, defaultIters: 4,
		trainEpisodes: 60, trainEval: 20, trainPool: 32, trainIters: 1,
		mixPool: [2]int{128, 160}, mixIters: [2]int{4, 5},
		mixLen: 64,
	}
)

// defaultRequest is the ROADMAP's representative run: api.DefaultRequest()
// (nano, dense, pool 2048, 72 BO iterations, surrogate Phase 1) at one
// evaluation worker per CPU.
func defaultRequest(sz size, workers int) api.CoDesignRequest {
	req := api.DefaultRequest()
	if sz.defaultPool > 0 {
		req.Constraints.CandidatePool = sz.defaultPool
		req.Constraints.BOIterations = sz.defaultIters
	}
	req.Constraints.Workers = workers
	return req
}

// trainRequest is the default request with real RL in Phase 1 (DQN over the
// three api.TrainHypers on the low scenario) and a Phase 2 small enough that
// training dominates.
func trainRequest(sz size, workers int) api.CoDesignRequest {
	req := defaultRequest(sz, workers)
	req.Scenario = "low"
	req.Constraints.CandidatePool = sz.trainPool
	req.Constraints.BOIterations = sz.trainIters
	req.Train = &api.TrainSpec{Algorithm: "dqn", Episodes: sz.trainEpisodes, EvalEpisodes: sz.trainEval}
	return req.Normalized()
}

// streamEntry is one request of the service-mix stream. Repeat is the index
// of the earlier entry it resubmits, or -1 for a request new to the stream.
type streamEntry struct {
	Req    api.CoDesignRequest
	Repeat int
}

// mixStrata is how many budget strata a block of fresh requests covers.
const mixStrata = 4

// mixStream returns the service-mix request stream for a seed. Fresh
// requests come in blocks that hold every (uav, scenario, budget stratum)
// combination once, in seeded order. Within its stratum a request draws its
// candidate pool and BO iterations uniformly, and its Phase-2 seed freely,
// so job sizes spread evenly over the ranges: the stream's cost profile is
// the same for every seed while its requests differ. Every fourth entry
// repeats an earlier request, alternating between the newest fresh request — which the other client is usually still
// computing, so it joins that computation — and an older one, which has
// usually finished, so it is answered from the result cache.
func mixStream(seed int64, sz size) []streamEntry {
	rng := rand.New(rand.NewSource(seed))
	uavs := []string{"mini", "micro", "nano"}
	scenarios := []string{"low", "medium", "dense"}
	type combo struct {
		uav, scenario string
		stratum       float64
	}
	var combos []combo
	for _, u := range uavs {
		for _, s := range scenarios {
			for k := 0; k < mixStrata; k++ {
				combos = append(combos, combo{u, s, float64(k)})
			}
		}
	}
	seen := map[string]bool{}
	var fresh []int // stream indices of fresh requests, in order
	var block []combo
	out := make([]streamEntry, 0, sz.mixLen)
	for i := 0; i < sz.mixLen; i++ {
		if i%4 == 3 {
			from := fresh[len(fresh)-1]
			if (i/4)%2 == 1 && len(fresh) > 2 {
				from = fresh[rng.Intn(len(fresh)-2)]
			}
			out = append(out, streamEntry{Req: out[from].Req, Repeat: from})
			continue
		}
		if len(block) == 0 {
			block = append(block, combos...)
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		c := block[0]
		block = block[1:]
		req := api.CoDesignRequest{UAVClass: c.uav, Scenario: c.scenario, Constraints: api.Constraints{
			CandidatePool: draw(rng, sz.mixPool, c.stratum),
			BOIterations:  draw(rng, sz.mixIters, c.stratum),
		}}
		for {
			req.Seed = 1 + rng.Int63n(1<<20)
			if h := req.Hash(); !seen[h] {
				seen[h] = true
				break
			}
		}
		fresh = append(fresh, i)
		out = append(out, streamEntry{Req: req.Normalized(), Repeat: -1})
	}
	return out
}

// draw returns an integer drawn uniformly from one of mixStrata equal
// slices of the closed range r.
func draw(rng *rand.Rand, r [2]int, stratum float64) int {
	span := float64(r[1] - r[0] + 1)
	return r[0] + int(span*(stratum+rng.Float64())/mixStrata)
}
