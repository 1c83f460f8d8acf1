package dse

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/hw"
	"autopilot/internal/policy"
)

// blockingBackend counts Estimate calls, announces the first call on
// started, and blocks every call on release so the test can pile racing
// goroutines onto one in-flight evaluation.
type blockingBackend struct {
	calls   *atomic.Int64
	started chan struct{}
	release <-chan struct{}
	once    *sync.Once
}

func (b blockingBackend) Name() string { return "stub" }

func (b blockingBackend) Estimate(w hw.Workload) (hw.Estimate, error) {
	b.calls.Add(1)
	b.once.Do(func() { close(b.started) })
	<-b.release
	return hw.Estimate{FPS: 100, RuntimeSec: 0.01, SoCPowerW: 1}, nil
}

// TestEvaluateSingleflight proves that goroutines racing on the same
// uncached design are deduplicated: the backend simulates exactly once, the
// leader is the sole cache miss, and every other caller is a hit.
func TestEvaluateSingleflight(t *testing.T) {
	db := airlearning.NewDatabase()
	airlearning.PopulateSurrogate(db)

	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	ev := newEvaluator(db)
	ev.backendID, ev.backend = "stub", func(DesignPoint) hw.Backend {
		return blockingBackend{calls: &calls, started: started, release: release, once: &once}
	}

	d := DesignPoint{Hyper: policy.Hyper{Layers: 3, Filters: 32}, HW: goldenDesign(3, 32, 16, 16, 64, 64, 64).HW}
	const n = 16
	var wg sync.WaitGroup
	results := make([]Evaluated, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = evalOne(ev, d)
		}(i)
	}
	// Wait until the leader is inside the backend, give the rest a chance to
	// queue on the flight, then let the single simulation finish.
	<-started
	close(release)
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Errorf("goroutine %d got a different result: %+v vs %+v", i, results[i], results[0])
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("backend simulated %d times, want 1", got)
	}
	hits, misses := ev.CacheStats()
	if misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
	if hits != n-1 {
		t.Errorf("hits = %d, want %d", hits, n-1)
	}
	if hits+misses != n {
		t.Errorf("hits+misses = %d, want %d", hits+misses, n)
	}

	// A later call is a plain cache hit and must not re-simulate.
	if _, err := evalOne(ev, d); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("backend simulated %d times after cache hit, want 1", got)
	}
}

// BenchmarkEvaluateCached measures contended cache-hit throughput: every
// goroutine hammers the same design through the one-design batch call — the
// path every model-guided BO step takes — which must allocate nothing.
func BenchmarkEvaluateCached(b *testing.B) {
	db := airlearning.NewDatabase()
	airlearning.PopulateSurrogate(db)
	ev := newEvaluator(db)
	d := DesignPoint{Hyper: policy.Hyper{Layers: 3, Filters: 32}, HW: goldenDesign(3, 32, 16, 16, 64, 64, 64).HW}
	if _, err := evalOne(ev, d); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx, ds := context.Background(), []DesignPoint{d}
		es, errs := make([]Evaluated, 1), make([]error, 1)
		for pb.Next() {
			if err := ev.Evaluate(ctx, ds, 0, es, errs); err != nil || errs[0] != nil {
				b.Fatal(err, errs[0])
			}
		}
	})
}
