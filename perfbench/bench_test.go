package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []layerMetric           `json:"end_to_end"`
	PerLayer  []layerMetric           `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that it reports every metric BENCHMARK.json lists, by name and
// unit, with no failed operation.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				runner, ok := workloads[w.Name]
				if !ok {
					t.Fatalf("no workload %q", w.Name)
				}
				cfg := config{workload: w.Name, seed: 3, window: 300 * time.Millisecond, trace: trace,
					out: t.TempDir(), workers: runtime.NumCPU(), size: tiny}
				res, err := runner(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := report(&out, cfg, environment(cfg), res); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
				}
				if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", last.Correct, last.Failed, last.Attempted, out.String())
				}
				want := bf.EndToEnd
				if trace {
					want = bf.PerLayer
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(last.Metrics), len(want))
				}
				printed := map[string]string{} // name -> unit of each "name value unit" line
				for _, l := range lines {
					if f := strings.Fields(l); len(f) >= 3 {
						printed[f[0]] = f[2]
					}
				}
				for _, m := range want {
					got, ok := last.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %q", m.Name, got, m.Unit)
					}
					if printed[m.Name] != m.Unit {
						t.Errorf("metric %s not printed with unit %q on its own line", m.Name, m.Unit)
					}
				}
				if !trace {
					for _, f := range wallFigures {
						if !strings.Contains(out.String(), "note: "+f+" ") {
							t.Errorf("wall-time figure %s not printed", f)
						}
					}
				}
			})
		}
	}
}

// TestPerLayerMap checks that BENCHMARK.json's per-layer list is the
// benchmark's layer table, and that every entry names an end-to-end metric
// and a workload.
func TestPerLayerMap(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the table %d", len(bf.PerLayer), len(layerMetrics))
	}
	e2e := map[string]bool{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = true
	}
	for _, f := range wallFigures {
		e2e[f] = true
	}
	for i, m := range layerMetrics {
		if got := bf.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, got, m)
		}
		for _, mv := range m.Moves {
			if !e2e[mv] {
				t.Errorf("%s moves %q, which is neither an end-to-end metric nor a wall-time figure", m.Name, mv)
			}
		}
		if _, ok := workloads[m.Workload]; !ok && m.Workload != "all" {
			t.Errorf("%s names unknown workload %q", m.Name, m.Workload)
		}
	}
}

// TestMixStreamSeeded checks that the service-mix stream is a function of
// its seed, and that its repeats point back at fresh requests.
func TestMixStreamSeeded(t *testing.T) {
	a, b, c := mixStream(7, full), mixStream(7, full), mixStream(8, full)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same stream")
	}
	hashes := map[string]bool{}
	repeats := 0
	for i, e := range a {
		if err := e.Req.Validate(); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if e.Repeat < 0 {
			if h := e.Req.Hash(); hashes[h] {
				t.Fatalf("entry %d: fresh request repeats an earlier hash", i)
			} else {
				hashes[h] = true
			}
			continue
		}
		repeats++
		if e.Repeat >= i || a[e.Repeat].Repeat != -1 || e.Req.Hash() != a[e.Repeat].Req.Hash() {
			t.Fatalf("entry %d repeats entry %d, which is not an earlier fresh twin", i, e.Repeat)
		}
	}
	if repeats != len(a)/4 {
		t.Fatalf("%d repeats in %d entries, want a quarter", repeats, len(a))
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); v != 30 || p != 75 {
		t.Fatalf("tail of 1..40 = %g at p%g, want 30 at p75 (ten samples above)", v, p)
	}
	if v, p := tail(xs[:5]); v != 5 || p != 100 {
		t.Fatalf("tail of 1..5 = %g at p%g, want the maximum", v, p)
	}
}

// TestSpeedProbe checks that the probe times its kernel and the set-up
// batches beside it, counts its own CPU time, and reports a set-up error.
func TestSpeedProbe(t *testing.T) {
	var calls int
	p := startProbe(func() error { calls++; return nil }, 3)
	time.Sleep(3 * probeEvery)
	r := p.stop()
	if !(r.factor > 0) || !(r.setup > 0) || !(r.setupRaw > 0) || r.err != nil {
		t.Fatalf("probe result %+v", r)
	}
	if calls == 0 || calls%3 != 0 {
		t.Fatalf("%d set-up calls, want whole batches of 3", calls)
	}
	if p.cpu() <= 0 {
		t.Fatal("the probe counted no CPU time of its own")
	}
	if (*speedProbe)(nil).cpu() != 0 {
		t.Fatal("no probe must count no CPU time")
	}

	boom := errors.New("boom")
	if r := startProbe(func() error { return boom }, 3).stop(); !errors.Is(r.err, boom) {
		t.Fatalf("set-up error %v, want %v", r.err, boom)
	}
}
