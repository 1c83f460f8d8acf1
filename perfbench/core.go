package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"autopilot/internal/api"
	"autopilot/internal/core"
)

// setupBatch is how many set-ups the speed probe times after each pass;
// setup_s is the median over the run's passes.
const setupBatch = 20

// coreRunner runs one fixed request through core.Run again and again and
// checks each result against the invariants and against the first result.
type coreRunner struct {
	cfg   config
	req   api.CoDesignRequest
	spec  core.Spec
	out   *outcome
	first []byte  // canonical result of the first run
	q     quality // of the first run
	walls []float64
	cpus  []float64   // CPU seconds of each untraced job
	speed *speedProbe // nil in a traced run
}

// runCore measures a workload of repeated identical co-design jobs.
func runCore(ctx context.Context, cfg config, req api.CoDesignRequest) (*outcome, error) {
	r := &coreRunner{cfg: cfg, req: req, out: &outcome{}}
	build := func() (core.Spec, error) {
		if err := req.Validate(); err != nil {
			return core.Spec{}, err
		}
		n := req.Normalized()
		_ = n.Hash()
		return n.Spec()
	}
	spec, err := build()
	if err != nil {
		return nil, err
	}
	r.spec = spec
	if cfg.trace {
		return r.traced(ctx)
	}
	r.speed = startProbe(func() error {
		_, err := build()
		return err
	}, setupBatch)
	defer r.speed.stop()
	var peaks []float64
	start := time.Now()
	for more(start, cfg.window, r.walls) {
		rss := startRSS()
		err := r.job(ctx)
		peaks = append(peaks, rss.stop(time.Time{}))
		if err != nil {
			return nil, err
		}
	}
	pr := r.speed.stop()
	if pr.err != nil {
		return nil, fmt.Errorf("set-up: %w", pr.err)
	}
	// The first job of a process also pays one-time costs, and a run fits
	// two to four jobs, so the first is left out of the CPU time whenever a
	// later job ran: otherwise the median would shift with the job count.
	cpus := r.cpus
	if len(cpus) > 1 {
		cpus = cpus[1:]
	}
	o := r.out
	o.addEndToEnd(pr.setup, pr.setupRaw, pr.factor, median(cpus), r.q.hypervolume, r.q.missions, median(peaks))
	o.notes = append(o.notes, fmt.Sprintf("first job %.6g CPU s as measured, %d jobs in all", r.cpus[0], len(r.cpus)))
	o.addWall(r.walls, sum(r.walls))
	return o, nil
}

// more reports whether another job fits in the window: the first always
// does, a later one when the time left holds the median job so far.
func more(start time.Time, window time.Duration, durs []float64) bool {
	return len(durs) == 0 || time.Since(start)+time.Duration(median(durs)*float64(time.Second)) <= window
}

// job runs and checks one untraced pipeline run and records its wall and
// CPU time. A pipeline error is a failed operation; only a cancelled ctx is
// returned. Each job starts with the heap collected and handed back to the
// OS, as in a fresh CLI process, so neither its resident-set peak nor its
// garbage-collection work depends on what the jobs before it left behind.
func (r *coreRunner) job(ctx context.Context) error {
	runtime.GC()
	debug.FreeOSMemory()
	r.out.attempted++
	c, pc := cpuTime(), r.speed.cpu()
	t := time.Now()
	rep, err := core.Run(ctx, r.spec)
	d := time.Since(t)
	cpu := cpuTime() - c - (r.speed.cpu() - pc)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	r.walls, r.cpus = append(r.walls, d.Seconds()), append(r.cpus, cpu.Seconds())
	if err != nil {
		r.out.fail("job %d: %v", r.out.attempted, err)
		return nil
	}
	r.record(serverResult(r.req, rep))
	return nil
}

// record checks one result: the invariants, and byte identity with the
// first result of the same request.
func (r *coreRunner) record(res api.Result) {
	q, err := checkResult(res)
	if err != nil {
		r.out.fail("job %d: %v", r.out.attempted, err)
		return
	}
	b, err := canonical(res)
	if err != nil {
		r.out.fail("job %d: encode result: %v", r.out.attempted, err)
		return
	}
	if r.first == nil {
		r.first, r.q = b, q
	} else if !bytes.Equal(b, r.first) {
		r.out.fail("job %d: result differs from the first run of the same request", r.out.attempted)
	}
}

// traced alternates untraced runs of the request with traced ones until the
// window closes, then reports the per-layer metrics. A traced job does what
// core.Run does — validate the spec, run the three phases — but calls the
// phases one by one through the recorder, then builds the api.Result the
// server would return. Its wall time, measured around all of that, is what
// the phases must cover.
func (r *coreRunner) traced(ctx context.Context) (*outcome, error) {
	rec := newRecorder()
	var use usage
	var jobs, phased []float64
	start := time.Now()
	for len(jobs) == 0 || more(start, r.cfg.window, r.walls) {
		if len(r.walls) <= len(jobs) {
			before := readUsage()
			if err := r.job(ctx); err != nil {
				return nil, err
			}
			use.add(readUsage().minus(before))
			continue
		}
		runtime.GC()
		debug.FreeOSMemory()
		r.out.attempted++
		t := time.Now()
		var rep *core.Report
		var pt phaseTimes
		err := r.spec.Validate()
		if err == nil {
			rep, pt, err = rec.run(ctx, r.spec)
		}
		var res api.Result
		if err == nil {
			res = serverResult(r.req, rep)
		}
		jobs = append(jobs, time.Since(t).Seconds())
		phased = append(phased, pt.total().Seconds())
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err != nil {
			r.out.fail("traced job %d: %v", len(jobs), err)
			continue
		}
		r.record(res)
	}
	lm := rec.layers(r.out)
	lm["core.phase_coverage"] = ratio(sum(phased), sum(jobs))
	use.perJob(lm, len(r.walls))
	lm["obs.trace_overhead_ratio"] = ratio(median(jobs), median(r.walls))
	return rec.finish(r.cfg, r.out, lm)
}

// addEndToEnd appends the end-to-end metrics in BENCHMARK.json order.
// setup is already at the reference host speed, raw as measured; the CPU
// time per job is scaled by speed, the run's host speed factor.
func (o *outcome) addEndToEnd(setup, raw, speed, cpu, hv, missions, rss float64) {
	o.add("setup_s", setup, "s", fmt.Sprintf("at the reference host speed; %.6g s as measured", raw))
	o.add("job_cpu_s", cpu*speed, "s", fmt.Sprintf("CPU seconds per job at the reference host speed; %.6g s as measured, host speed %.4g", cpu, speed))
	o.add("hypervolume", hv, "hv", "Phase-2 front at ref {0,30,1}")
	o.add("missions", missions, "missions", "per charge, selected design")
	o.add("success_rate", ratio(float64(o.attempted-o.failed), float64(o.attempted)), "ratio",
		fmt.Sprintf("%d of %d operations", o.attempted-o.failed, o.attempted))
	o.add("peak_rss_mb", rss, "MB", fmt.Sprintf("p95 of VmRSS sampled every 10ms; VmHWM %.1f MB", procStatusMB("VmHWM:")))
}

// wallFigures names the wall-time figures addWall prints.
var wallFigures = []string{"job_p50_s", "job_tail_s", "jobs_per_s"}

// addWall records the wall-time figures of a run — median and tail job
// time and throughput — as notes beside the metrics. They are what a user
// waits for, but on a shared host they follow the CPU time the hypervisor
// and its other guests take, so the benchmark does not bound them. durs
// are the job wall times, span the wall time over which they ran.
func (o *outcome) addWall(durs []float64, span float64) {
	t, p := tail(durs)
	o.notes = append(o.notes,
		fmt.Sprintf("%s %.6g s (%d jobs; wall time, unbounded)", wallFigures[0], median(durs), len(durs)),
		fmt.Sprintf("%s %.6g s (p%.4g of %d jobs; wall time, unbounded)", wallFigures[1], t, p, len(durs)),
		fmt.Sprintf("%s %.6g 1/s (%d jobs in %.2fs; wall time, unbounded)", wallFigures[2], ratio(float64(len(durs)), span), len(durs), span))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// usage is Go-runtime accounting over some untraced jobs.
type usage struct {
	allocBytes uint64
	gcCycles   uint32
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
}

// cpuTime returns the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (u usage) minus(v usage) usage {
	return usage{allocBytes: u.allocBytes - v.allocBytes, gcCycles: u.gcCycles - v.gcCycles}
}

func (u *usage) add(v usage) {
	u.allocBytes += v.allocBytes
	u.gcCycles += v.gcCycles
}

// perJob stores the per-job runtime metrics over jobs untraced jobs.
func (u usage) perJob(m map[string]float64, jobs int) {
	n := float64(jobs)
	m["go.alloc_mb_per_job"] = ratio(float64(u.allocBytes)/(1<<20), n)
	m["go.gc_cycles_per_job"] = ratio(float64(u.gcCycles), n)
}
