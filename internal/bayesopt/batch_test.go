package bayesopt

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestEvaluateBatchMatchesSequential pins the batch hook's contract: routing
// the initial samples through EvaluateBatch must leave the evaluation
// sequence, hypervolume trace and final front bit-identical to the
// sequential Evaluate path.
func TestEvaluateBatchMatchesSequential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 8, 12, 32

	seq, err := OptimizeContext(context.Background(), zdt1Grid(12), cfg)
	if err != nil {
		t.Fatal(err)
	}

	p := zdt1Grid(12)
	batchCalls := 0
	p.EvaluateBatch = func(indices []int) [][]float64 {
		batchCalls++
		out := make([][]float64, len(indices))
		for j, i := range indices {
			out[j] = p.Evaluate(i)
		}
		return out
	}
	bat, err := OptimizeContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if batchCalls != 1 {
		t.Fatalf("EvaluateBatch called %d times, want exactly once (init phase)", batchCalls)
	}
	if !reflect.DeepEqual(seq.Evaluations, bat.Evaluations) {
		t.Fatal("evaluation sequences diverge between batch and sequential paths")
	}
	if !reflect.DeepEqual(seq.HypervolumeTrace, bat.HypervolumeTrace) {
		t.Fatal("hypervolume traces diverge")
	}
	if !reflect.DeepEqual(seq.FrontIndices, bat.FrontIndices) {
		t.Fatal("final fronts diverge")
	}
}

func TestEvaluateBatchSizeMismatchRejected(t *testing.T) {
	p := zdt1Grid(8)
	p.EvaluateBatch = func(indices []int) [][]float64 {
		return nil // wrong length
	}
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations = 4, 0
	if _, err := OptimizeContext(context.Background(), p, cfg); err == nil {
		t.Fatal("expected error for short batch result")
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
	n := 0
	inner := p.Evaluate
	p.Evaluate = func(i int) []float64 {
		n++
		if n == cfg.InitSamples {
			cancel2()
		}
		return inner(i)
	}
	if _, err := OptimizeContext(ctx2, p, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run err = %v, want wrapped context.Canceled", err)
	}
}
