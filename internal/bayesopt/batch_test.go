package bayesopt

import (
	"context"
	"errors"
	"testing"
)

// TestEvaluateCallShape pins the hook's call pattern: one call carrying
// every initial sample, then exactly one single-index call per model-guided
// iteration.
func TestEvaluateCallShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 8, 12, 32
	p := zdt1Grid(12)
	inner := p.Evaluate
	var sizes []int
	p.Evaluate = func(indices []int) [][]float64 {
		sizes = append(sizes, len(indices))
		return inner(indices)
	}
	if _, err := OptimizeContext(context.Background(), p, cfg); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 1+cfg.Iterations || sizes[0] != cfg.InitSamples {
		t.Fatalf("call sizes = %v, want %d then %d ones", sizes, cfg.InitSamples, cfg.Iterations)
	}
	for _, n := range sizes[1:] {
		if n != 1 {
			t.Fatalf("call sizes = %v: a model-guided call scored %d candidates", sizes, n)
		}
	}
}

// TestEvaluateBatchSizeMismatchRejected checks the returned lengths on every
// call: a short initial batch, a short model-guided answer and a vector of
// the wrong objective count are all errors, never a misalignment or a panic.
func TestEvaluateBatchSizeMismatchRejected(t *testing.T) {
	for _, failAt := range []int{1, 2} {
		p := zdt1Grid(8)
		inner := p.Evaluate
		calls := 0
		p.Evaluate = func(indices []int) [][]float64 {
			calls++
			if calls == failAt {
				return nil // wrong length
			}
			return inner(indices)
		}
		cfg := DefaultConfig()
		cfg.InitSamples, cfg.Iterations = 4, 2
		if _, err := OptimizeContext(context.Background(), p, cfg); err == nil {
			t.Fatalf("call %d: expected error for a short result", failAt)
		}
	}
	p := zdt1Grid(8)
	p.Evaluate = perIndex(func(int) []float64 { return []float64{1} })
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations = 4, 0
	if _, err := OptimizeContext(context.Background(), p, cfg); err == nil {
		t.Fatal("expected error for a vector of the wrong objective count")
	}
}

func TestOptimizeContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations = 4, 4
	if _, err := OptimizeContext(ctx, zdt1Grid(8), cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}

	// cancel mid-run: after the init phase, before guided iterations finish
	ctx2, cancel2 := context.WithCancel(context.Background())
	p := zdt1Grid(8)
	inner := p.Evaluate
	p.Evaluate = func(indices []int) [][]float64 {
		cancel2()
		return inner(indices)
	}
	if _, err := OptimizeContext(ctx2, p, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run err = %v, want wrapped context.Canceled", err)
	}
}
