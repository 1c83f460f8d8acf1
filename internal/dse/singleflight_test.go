package dse

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autopilot/internal/airlearning"
	"autopilot/internal/fault"
	"autopilot/internal/hw"
	"autopilot/internal/policy"
	"autopilot/internal/power"
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

// slowBackend answers after delay: a local cost model that outlives a
// per-attempt budget without ever looking at a context.
type slowBackend struct{ delay time.Duration }

func (b slowBackend) Name() string { return "slow" }

func (b slowBackend) Estimate(hw.Workload) (hw.Estimate, error) {
	time.Sleep(b.delay)
	return hw.Estimate{FPS: 100, RuntimeSec: 0.01, SoCPowerW: 1}, nil
}

// TestLocalAttemptTimeoutHonoursBudget checks that the per-attempt timeout
// binds local estimates: a design whose backend outlives Retry.Timeout
// fails as a typed timeout, which fail-fast (budget 0) makes fatal and a
// positive budget records as a failure while the fast designs survive.
// Without a timeout the same slow design is simply scored. The margins are
// wide on both sides, so a fast design preempted for tens of milliseconds
// (as under -race with packages testing in parallel) still beats the
// deadline and the slow one never does.
func TestLocalAttemptTimeoutHonoursBudget(t *testing.T) {
	const attemptTimeout, slowDelay = 100 * time.Millisecond, 400 * time.Millisecond
	slow := goldenDesign(3, 32, 64, 64, 64, 64, 64)
	ds := []DesignPoint{goldenDesign(3, 32, 16, 16, 64, 64, 64), slow, goldenDesign(3, 32, 32, 32, 64, 64, 64)}
	settle := func(timeout time.Duration, budget float64) (*Result, error) {
		req := Request{Space: DefaultSpace(), DB: surrogateDB(), Scenario: airlearning.DenseObstacle, Power: power.Default(),
			Retry: fault.Policy{Timeout: timeout}, FailureBudget: budget}
		ev := req.NewEvaluator()
		ev.backendID, ev.backend = "stub", func(d DesignPoint) hw.Backend {
			if d == slow {
				return slowBackend{delay: slowDelay}
			}
			return slowBackend{}
		}
		res := &Result{}
		_, err := req.settle(context.Background(), ev, res, ds, "")
		return res, err
	}

	res, err := settle(0, 0)
	if err != nil || len(res.Evaluated) != len(ds) {
		t.Fatalf("no timeout: err %v, %d evaluated", err, len(res.Evaluated))
	}

	_, err = settle(attemptTimeout, 0)
	var te *fault.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("budget 0: err = %v, want a typed timeout", err)
	}

	res, err = settle(attemptTimeout, 0.5)
	if err != nil {
		t.Fatalf("budget 0.5: %v", err)
	}
	if len(res.Evaluated) != 2 || len(res.Failures) != 1 || res.Failures[0].Job != slow.String() || res.Failures[0].Kind != fault.KindTimeout {
		t.Fatalf("budget 0.5: %d evaluated, failures %+v; want the slow design as one timeout", len(res.Evaluated), res.Failures)
	}
}
