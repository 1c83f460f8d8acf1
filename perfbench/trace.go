package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"autopilot/internal/airlearning"
	"autopilot/internal/api"
	"autopilot/internal/core"
	"autopilot/internal/dse"
	"autopilot/internal/obs"
	"autopilot/internal/pool"
	"autopilot/internal/train"
)

// phaseTimes are one traced pipeline run's phase wall times.
type phaseTimes [3]time.Duration

func (p phaseTimes) total() time.Duration { return p[0] + p[1] + p[2] }

// recorder runs traced pipelines. It runs each job's pipeline phase by
// phase inside the benchmark's own spans, under an observer whose registry
// and tracer collect what the program already emits; the per-layer metrics
// are read from both afterwards.
type recorder struct {
	reg *obs.Registry
	tr  *obs.Tracer

	mu     sync.Mutex
	byKey  map[string][]phaseTimes // specKey -> phase times of its runs, in order
	phases []phaseTimes
	// largest is the run with the most Phase-2 evaluations, replayed
	// through gp and pareto.
	largest     *core.Report
	largestSpec core.Spec
}

func newRecorder() *recorder {
	return &recorder{reg: obs.NewRegistry(), tr: obs.NewTracer(), byKey: map[string][]phaseTimes{}}
}

// pipeline has server.Config.Pipeline's signature.
func (rc *recorder) pipeline(ctx context.Context, spec core.Spec) (*core.Report, error) {
	rep, _, err := rc.run(ctx, spec)
	return rep, err
}

// run runs one traced pipeline and records its phase times.
func (rc *recorder) run(ctx context.Context, spec core.Spec) (*core.Report, phaseTimes, error) {
	o := &obs.Observer{Metrics: rc.reg, Trace: rc.tr}
	if spec.Obs != nil {
		o.Events = spec.Obs.Events // keeps a server job's /events stream
	}
	rep, pt, err := runPhases(ctx, spec, o, specKey(spec))
	if err != nil {
		return nil, pt, err
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.byKey[specKey(spec)] = append(rc.byKey[specKey(spec)], pt)
	rc.phases = append(rc.phases, pt)
	if rc.largest == nil || len(rep.Phase2.Evaluated) > len(rc.largest.Phase2.Evaluated) {
		rc.largest, rc.largestSpec = rep, spec
	}
	return rep, pt, nil
}

// runPhases runs the pipeline's three phases the way core.Run does, one at
// a time, each inside a benchmark span on the observer's tracer, so the
// phase times are measured here rather than read back from the program.
func runPhases(ctx context.Context, spec core.Spec, o *obs.Observer, name string) (*core.Report, phaseTimes, error) {
	var pt phaseTimes
	spec.Obs = o
	ctx = obs.NewContext(ctx, o)
	root := o.Span("job "+name, "bench")
	defer root.End()
	ctx = obs.ContextWithSpan(ctx, root)
	step := func(i int, label string, fn func(context.Context) error) error {
		sp := root.Child(label, "bench")
		t := time.Now()
		err := fn(obs.ContextWithSpan(ctx, sp))
		pt[i] = time.Since(t)
		sp.End()
		return err
	}
	var db *airlearning.Database
	var p1 *train.SweepReport
	var p2 *dse.Result
	var rep *core.Report
	err := step(0, "core.Phase1Report", func(ctx context.Context) (err error) {
		db, p1, err = core.Phase1Report(ctx, spec)
		return err
	})
	if err == nil {
		err = step(1, "core.Phase2", func(ctx context.Context) (err error) {
			p2, err = core.Phase2(ctx, spec, db)
			return err
		})
	}
	if err == nil {
		err = step(2, "core.Phase3", func(ctx context.Context) (err error) {
			rep, err = core.Phase3(ctx, spec, p2)
			return err
		})
	}
	if err != nil {
		return nil, pt, err
	}
	rep.Database, rep.Phase1 = db, p1
	return rep, pt, nil
}

// layers computes the per-layer metrics of the pipeline layers from the
// traced runs: phase times, the program's counters and spans, and the gp
// and pareto replays on the largest run.
func (rc *recorder) layers(o *outcome) map[string]float64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	lm := layerTotals(rc.reg, rc.tr, rc.phases, pool.Workers(rc.largestSpec.Workers))
	if rc.largest != nil {
		rm, err := replay(rc.largestSpec, rc.largest)
		if err != nil {
			o.fail("%v", err)
		}
		for k, v := range rm {
			lm[k] = v
		}
	}
	return lm
}

// serverLayers adds the per-layer metrics of the server, api and memo
// layers, and the phases' coverage of each traced job's execution on the
// server. jobs are the traced jobs as their clients saw them; hits and
// misses are the server's result-cache counts. It consumes byKey.
func (rc *recorder) serverLayers(lm map[string]float64, stream []prepared, jobs []mixJob, hits, misses int64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var submit, wait, piped, over []float64
	var phased, executed time.Duration
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		submit = append(submit, j.submit.Seconds()*1e3)
		wait = append(wait, j.queueWait.Seconds()*1e3)
		// A job that ran the pipeline takes its request's next recorded run.
		if runs := rc.byKey[stream[j.entry].key]; len(runs) > 0 && !j.cacheHit {
			pt := runs[0]
			rc.byKey[stream[j.entry].key] = runs[1:]
			piped = append(piped, pt.total().Seconds()*1e3)
			over = append(over, (j.dur-j.queueWait-pt.total()).Seconds()*1e3)
			phased += pt.total()
			executed += j.exec
		}
	}
	lm["server.submit_ms"], lm["server.queue_wait_ms"] = median(submit), median(wait)
	lm["server.pipeline_ms"], lm["server.overhead_ms"] = median(piped), median(over)
	lm["memo.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	// The server's execution of a job — from Started to Finished — holds the
	// result-cache lookup, building the spec, the pipeline and building the
	// result; the phases must account for nearly all of it.
	lm["core.phase_coverage"] = ratio(phased.Seconds(), executed.Seconds())

	reqs := make([]api.CoDesignRequest, len(stream))
	for i, p := range stream {
		reqs[i] = p.Req
	}
	passes := 1 + 1000/len(reqs)
	prep := timeReps(5, func() {
		for k := 0; k < passes; k++ {
			for _, r := range reqs {
				if r.Validate() == nil {
					_ = r.Normalized().Hash()
				}
			}
		}
	})
	lm["api.prepare_us"] = float64(prep) / 1e3 / float64(passes*len(reqs))
}

// finish checks that the phases cover the traced jobs, writes the Chrome
// trace, and appends the per-layer metrics in table order.
func (rc *recorder) finish(cfg config, o *outcome, lm map[string]float64) (*outcome, error) {
	if c := lm["core.phase_coverage"]; c < 0.95 {
		o.fail("the three phases cover %.1f%% of the traced job time (< 95%%)", 100*c)
	}
	if cfg.out != "" {
		if err := writeTrace(cfg.artifact("trace.json"), rc.tr); err != nil {
			return nil, err
		}
	}
	for _, m := range layerMetrics {
		o.add(m.Name, lm[m.Name], m.Unit, "moves "+strings.Join(m.Moves, ", ")+" on "+m.Workload)
	}
	return o, nil
}

func writeTrace(path string, tr *obs.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
