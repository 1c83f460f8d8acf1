package main

import (
	"fmt"
	"math"

	"autopilot/internal/core"
	"autopilot/internal/gp"
	"autopilot/internal/obs"
	"autopilot/internal/pareto"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metrics or printed wall-time figures it should move and the
// workload on which it should move them. The other workloads are where the
// layer is bypassed or minor, so a change to it should leave their numbers
// alone.
type layerMetric struct {
	Name     string   `json:"name"`
	Unit     string   `json:"unit"`
	Better   string   `json:"better"`
	Layer    string   `json:"layer"`
	Moves    []string `json:"moves"`
	Workload string   `json:"workload"`
}

const (
	wDefault = "autopilot-default"
	wTrain   = "train-phase1"
	wMix     = "service-mix"
)

// layerMetrics lists every per-layer metric in output order. Counts and
// times are per pipeline run unless the name says otherwise.
var layerMetrics = []layerMetric{
	{"core.phase1_s", "s", "lower", "core", []string{"job_cpu_s", "job_p50_s"}, wTrain},
	{"core.phase2_s", "s", "lower", "core", []string{"job_cpu_s", "job_p50_s"}, wDefault},
	{"core.phase3_s", "s", "lower", "core", []string{"job_cpu_s"}, wMix},
	{"core.phase_coverage", "ratio", "higher", "core", []string{"job_cpu_s"}, wMix},
	{"bayesopt.iterations", "count", "lower", "bayesopt", []string{"job_cpu_s", "job_p50_s"}, wDefault},
	{"bayesopt.iter_ms", "ms", "lower", "bayesopt", []string{"job_cpu_s", "job_p50_s"}, wDefault},
	{"bayesopt.iter_total_s", "s", "lower", "bayesopt", []string{"job_cpu_s", "job_p50_s"}, wDefault},
	{"bayesopt.init_ms", "ms", "lower", "bayesopt", []string{"job_cpu_s", "job_p50_s"}, wDefault},
	{"gp.fit_ms", "ms", "lower", "gp", []string{"job_cpu_s", "job_p50_s"}, wDefault},
	{"gp.predict_us", "us", "lower", "gp", []string{"job_cpu_s", "job_p50_s"}, wDefault},
	{"pareto.hypervolume_us", "us", "lower", "pareto", []string{"job_cpu_s", "job_p50_s"}, wDefault},
	{"pareto.front_size", "count", "higher", "pareto", []string{"hypervolume"}, wDefault},
	{"dse.evaluations", "count", "lower", "dse", []string{"job_cpu_s"}, wMix},
	{"dse.cache_hit_ratio", "ratio", "higher", "dse", []string{"job_cpu_s"}, wMix},
	{"hw.estimate_calls", "count", "lower", "hw", []string{"job_cpu_s"}, wMix},
	{"hw.estimate_us", "us", "lower", "hw", []string{"job_cpu_s"}, wMix},
	{"pool.busy_s", "s", "lower", "pool", []string{"job_cpu_s"}, wTrain},
	{"pool.idle_s", "s", "lower", "pool", []string{"job_p50_s"}, wTrain},
	{"pool.utilization", "ratio", "higher", "pool", []string{"job_p50_s"}, wTrain},
	{"train.episodes", "count", "lower", "train", []string{"job_cpu_s", "job_p50_s"}, wTrain},
	{"train.env_steps", "count", "lower", "train", []string{"job_cpu_s", "job_p50_s"}, wTrain},
	{"train.eval_episodes", "count", "lower", "train", []string{"job_cpu_s", "job_p50_s"}, wTrain},
	{"train.run_s", "s", "lower", "train", []string{"job_cpu_s", "job_p50_s"}, wTrain},
	{"train.env_steps_per_s", "1/s", "higher", "rl", []string{"job_cpu_s", "job_p50_s"}, wTrain},
	{"nn.forward_batch_calls", "count", "lower", "nn", []string{"job_cpu_s", "job_p50_s"}, wTrain},
	{"nn.forward_batch_inputs", "count", "lower", "nn", []string{"job_cpu_s", "job_p50_s"}, wTrain},
	{"server.submit_ms", "ms", "lower", "server", []string{"job_tail_s", "jobs_per_s"}, wMix},
	{"server.queue_wait_ms", "ms", "lower", "server", []string{"job_tail_s", "jobs_per_s"}, wMix},
	{"server.pipeline_ms", "ms", "lower", "server", []string{"job_cpu_s", "job_tail_s"}, wMix},
	{"server.overhead_ms", "ms", "lower", "server", []string{"job_cpu_s", "jobs_per_s"}, wMix},
	{"memo.hit_ratio", "ratio", "higher", "memo", []string{"job_cpu_s", "jobs_per_s"}, wMix},
	{"api.prepare_us", "us", "lower", "api", []string{"job_cpu_s"}, wMix},
	{"go.alloc_mb_per_job", "MB", "lower", "runtime", []string{"peak_rss_mb", "job_cpu_s"}, "all"},
	{"go.gc_cycles_per_job", "count", "lower", "runtime", []string{"peak_rss_mb", "job_cpu_s"}, "all"},
	{"obs.trace_overhead_ratio", "ratio", "lower", "obs", []string{"job_p50_s"}, "all"},
}

// layerTotals turns the registry and tracer of a traced run into per-layer
// values. phases holds the phase times of every pipeline run the
// instruments saw; workers is the evaluation pool size.
func layerTotals(reg *obs.Registry, tr *obs.Tracer, phases []phaseTimes, workers int) map[string]float64 {
	n := float64(len(phases))
	count := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	perRun := func(name string) float64 { return ratio(count(name), n) }
	m := map[string]float64{}

	var p1, p2, p3 []float64
	var wall float64
	for _, p := range phases {
		p1 = append(p1, p[0].Seconds())
		p2 = append(p2, p[1].Seconds())
		p3 = append(p3, p[2].Seconds())
		wall += p.total().Seconds()
	}
	m["core.phase1_s"], m["core.phase2_s"], m["core.phase3_s"] = median(p1), median(p2), median(p3)

	var iters []float64
	var iterTotal, initTotal float64
	for _, d := range tr.Durations("bayesopt") {
		switch d.Name {
		case "bo.iter":
			iters = append(iters, d.Seconds*1e3)
			iterTotal += d.Seconds
		case "bo.init":
			initTotal += d.Seconds
		}
	}
	m["bayesopt.iterations"] = perRun("bo.iterations")
	m["bayesopt.iter_ms"] = median(iters)
	m["bayesopt.iter_total_s"] = ratio(iterTotal, n)
	m["bayesopt.init_ms"] = ratio(initTotal*1e3, n)

	m["dse.evaluations"] = perRun("bo.evaluations")
	hits, misses := count("dse.cache.hits"), count("dse.cache.misses")
	m["dse.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["hw.estimate_calls"] = perRun("hw.estimate.calls")
	est := reg.Histogram("hw.estimate_seconds", obs.LatencyBuckets)
	m["hw.estimate_us"] = ratio(est.Sum()*1e6, float64(est.Count()))

	busy, idle := count("pool.busy_ns")/1e9, count("pool.idle_ns")/1e9
	m["pool.busy_s"], m["pool.idle_s"] = ratio(busy, n), ratio(idle, n)
	// Pools nest (a training worker's evaluation rollouts fan out again), so
	// busy time can exceed workers × wall.
	m["pool.utilization"] = ratio(busy, float64(workers)*wall)

	m["train.episodes"] = perRun("train.episodes")
	m["train.env_steps"] = perRun("train.env_steps")
	m["train.eval_episodes"] = perRun("train.eval.episodes")
	m["train.run_s"] = ratio(reg.Histogram("train.run_seconds", obs.ExpBuckets(0.001, 4, 12)).Sum(), n)
	m["train.env_steps_per_s"] = ratio(count("train.env_steps"), sum(p1))
	m["nn.forward_batch_calls"] = perRun("nn.forward_batch.calls")
	m["nn.forward_batch_inputs"] = perRun("nn.forward_batch.inputs")
	return m
}

// replay times the GP and hypervolume entry points on a finished run's own
// data: a GP fit on its final observations, predictions at those points,
// and the hypervolume of its Phase-2 front plus one more evaluated point —
// the computation SMS-EGO repeats for every screened candidate.
func replay(spec core.Spec, rep *core.Report) (map[string]float64, error) {
	ev := rep.Phase2.Evaluated
	x := make([][]float64, len(ev))
	y := make([]float64, len(ev))
	var objs [][]float64
	for i, e := range ev {
		x[i] = spec.Space.Features(e.Design)
		y[i] = e.Objectives()[0]
		objs = append(objs, e.Objectives())
	}
	standardize(y)
	kernel := gp.SE{Variance: 1, LengthScale: spec.Phase2.BO.LengthScale}
	var g *gp.GP
	var err error
	fit := timeReps(9, func() { g, err = gp.Fit(x, y, kernel, spec.Phase2.BO.Noise) })
	if err != nil {
		return nil, fmt.Errorf("replay gp.Fit: %w", err)
	}
	predict := timeReps(9, func() {
		for _, q := range x {
			g.Predict(q)
		}
	})
	var front [][]float64
	for _, e := range rep.Phase2.Pareto() {
		front = append(front, e.Objectives())
	}
	probe := make([][]float64, len(front)+1)
	copy(probe, front)
	k := 0
	hv := timeReps(2*len(objs), func() {
		probe[len(front)] = objs[k%len(objs)]
		k++
		pareto.Hypervolume(probe, hvRef)
	})
	return map[string]float64{
		"gp.fit_ms":             float64(fit) / 1e6,
		"gp.predict_us":         float64(predict) / 1e3 / float64(len(x)),
		"pareto.hypervolume_us": float64(hv) / 1e3,
		"pareto.front_size":     float64(len(front)),
	}, nil
}

// standardize rescales y to zero mean and unit deviation in place, as the
// optimizer does before fitting each objective's GP.
func standardize(y []float64) {
	var mean, sd float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for _, v := range y {
		sd += (v - mean) * (v - mean)
	}
	sd = math.Sqrt(sd / float64(len(y)))
	if sd < 1e-12 {
		sd = 1
	}
	for i := range y {
		y[i] = (y[i] - mean) / sd
	}
}
