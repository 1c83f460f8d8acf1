// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload in-process through the public entry points — a
// CoDesignRequest's Spec into core.Run, or an autopilotd server.Server
// behind a loopback HTTP listener — checks every output, and prints each
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload autopilot-default --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// observer attached. With --trace 1 it reports the per-layer metrics: it
// runs the pipeline phase by phase inside its own spans, attaches an
// obs.Observer to read the counters and spans the program already emits,
// and writes a Chrome trace and a per-layer JSON file to --out.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration // how long the run measures
	trace    bool
	out      string // directory for trace artifacts; "" writes none
	workers  int    // evaluation workers per job and load clients: nproc
	size     size
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"-"`
}

// outcome is a finished run: operation counts, the metrics in output order,
// and, for the log, the failures seen and notes on figures not reported as
// metrics.
type outcome struct {
	attempted, failed int
	metrics           []metric
	failures          []string
	notes             []string
}

func (o *outcome) add(name string, value float64, unit, note string) {
	o.metrics = append(o.metrics, metric{Name: name, Value: value, Unit: unit, Note: note})
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	wDefault: func(ctx context.Context, cfg config) (*outcome, error) {
		return runCore(ctx, cfg, defaultRequest(cfg.size, cfg.workers))
	},
	wTrain: func(ctx context.Context, cfg config) (*outcome, error) {
		return runCore(ctx, cfg, trainRequest(cfg.size, cfg.workers))
	},
	wMix: runMix,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: autopilot-default, train-phase1 or service-mix")
	seed := fs.Int64("seed", 1, "workload seed")
	secs := fs.Float64("seconds", 30, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for the trace and per-layer JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, seconds %g, trace %d\n", *workload, *secs, *trace)
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*secs * float64(time.Second)),
		trace:    *trace == 1,
		out:      *out,
		workers:  runtime.NumCPU(),
		size:     full,
	}
	env := environment(cfg)
	envJSON, _ := json.Marshal(env) // a map of strings and numbers always marshals
	fmt.Printf("env %s\n", envJSON)

	steal := readSteal()
	res, err := runner(context.Background(), cfg)
	env["cpu_steal_pct"] = steal()
	fmt.Printf("host cpu steal during the run: %.2f%%\n", env["cpu_steal_pct"])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := report(os.Stdout, cfg, env, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// report prints the failures and metrics one per line, writes them with the
// environment to the output directory, and ends with the result line.
func report(w io.Writer, cfg config, env map[string]any, res *outcome) error {
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintf(w, "error_rate %g ratio (%d failed of %d attempted)\n",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	metrics := map[string]metric{}
	for _, m := range res.metrics {
		line := fmt.Sprintf("%-26s %14.6g %s", m.Name, m.Value, m.Unit)
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
		metrics[m.Name] = m
	}
	if cfg.out != "" {
		kind := "metrics"
		if cfg.trace {
			kind = "layers"
		}
		doc := map[string]any{"env": env, "workload": cfg.workload, "metrics": metrics,
			"attempted": res.attempted, "failed": res.failed, "failures": res.failures, "notes": res.notes}
		if cfg.trace {
			doc["layer_map"] = layerMetrics
		}
		if err := writeJSON(cfg.artifact(kind+".json"), doc); err != nil {
			return err
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// artifact names a file of this run in the output directory.
func (c config) artifact(suffix string) string {
	return filepath.Join(c.out, fmt.Sprintf("%s-seed%d-%s", c.workload, c.seed, suffix))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// environment records what a number needs beside it to be comparable: the
// host's CPUs and model, the Go runtime, and the workload seed.
func environment(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.window.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// readSteal samples the host's CPU counters and returns a function giving
// the share of CPU time, in percent, the hypervisor took from this machine
// since the sample (the steal column of /proc/stat); a shared host's steal
// is what makes its wall times wander. It reads 0 where /proc is unavailable.
func readSteal() func() float64 {
	sample := func() (steal, total float64) {
		data, err := os.ReadFile("/proc/stat")
		if err != nil {
			return 0, 0
		}
		line, _, _ := strings.Cut(string(data), "\n")
		for i, f := range strings.Fields(line)[1:] {
			v, _ := strconv.ParseFloat(f, 64) // a malformed field counts as 0
			total += v
			if i == 7 {
				steal = v
			}
		}
		return steal, total
	}
	s0, t0 := sample()
	return func() float64 {
		s1, t1 := sample()
		return 100 * ratio(s1-s0, t1-t0)
	}
}

// rssSampler records the process's resident set size (VmRSS) every 10 ms
// until stopped.
type rssSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	samples []rssSample
}

type rssSample struct {
	at time.Time
	mb float64
}

func startRSS() *rssSampler {
	r := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			r.samples = append(r.samples, rssSample{time.Now(), procStatusMB("VmRSS:")})
			select {
			case <-r.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// stop ends sampling and returns the 95th percentile of the samples taken
// up to until, or of all of them for a zero until: the resident memory the
// process held for at least a twentieth of that time. The top few samples
// are garbage-collection spikes shorter than that, whose height depends on
// when the collector happened to run: over identical train-phase1 jobs the
// 99th percentile swung between 37 and 53 MB and the maximum between 41
// and 66 MB, while the 95th stayed within 35–37 MB.
func (r *rssSampler) stop(until time.Time) float64 {
	close(r.stopc)
	<-r.done
	var s []float64
	for _, x := range r.samples {
		if until.IsZero() || !x.at.After(until) {
			s = append(s, x.mb)
		}
	}
	sort.Float64s(s)
	return s[(len(s)-1)*95/100]
}

// procStatusMB reads one kB field of /proc/self/status in MB, or 0 where
// /proc is unavailable.
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
