// Layer-owned workspaces: the training step reuses every buffer it writes,
// the unrolled kernels keep each sum's order, and the batched inference
// path stays pure under concurrent use.
package nn_test

import (
	"math"
	"sync"
	"testing"

	"autopilot/internal/nn"
	"autopilot/internal/policy"
	"autopilot/internal/tensor"
)

// sprinkleZeros overwrites about a quarter of t's entries with +0 or -0.
func sprinkleZeros(g *tensor.RNG, t *tensor.Tensor) {
	d := t.Data()
	for i := range d {
		switch g.Intn(8) {
		case 0:
			d[i] = 0
		case 1:
			d[i] = math.Copysign(0, -1)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDenseForwardMatchesReferenceLoop holds the four-outputs-per-pass
// Dense kernel to the straight per-output loop: bias first, then W[o][i]·x[i]
// for i ascending.
func TestDenseForwardMatchesReferenceLoop(t *testing.T) {
	g := tensor.NewRNG(31)
	for out := 1; out <= 9; out++ {
		for in := 1; in <= 13; in += 3 {
			d := nn.NewDense(in, out, g)
			copy(d.B.Data(), g.Randn(1, out).Data())
			sprinkleZeros(g, d.W)
			sprinkleZeros(g, d.B)
			x := g.Randn(1, in)
			sprinkleZeros(g, x)

			want := make([]float64, out)
			wd, bd, xd := d.W.Data(), d.B.Data(), x.Data()
			for o := range want {
				s := bd[o]
				for i := 0; i < in; i++ {
					s += wd[o*in+i] * xd[i]
				}
				want[o] = s
			}
			if got := d.Forward(x).Data(); !sameBits(got, want) {
				t.Fatalf("out=%d in=%d: Forward = %v, reference = %v", out, in, got, want)
			}
			if got := d.ForwardBatch([]*tensor.Tensor{x})[0].Data(); !sameBits(got, want) {
				t.Fatalf("out=%d in=%d: ForwardBatch = %v, reference = %v", out, in, got, want)
			}
		}
	}
}

// TestTrainingStepAllocatesNothing: once the first step has sized the
// layer workspaces, a Forward + Backward on a policy-template network
// allocates nothing.
func TestTrainingStepAllocatesNothing(t *testing.T) {
	obs := gatherObs(t, 2)
	for _, h := range []policy.Hyper{{Layers: 2, Filters: 32}, {Layers: 7, Filters: 48}} {
		net, err := policy.NewTrainable(h, policy.DefaultTrainable(), tensor.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		grad := tensor.New(policy.DefaultTrainable().Actions)
		grad.Data()[1] = 0.5
		step := func() {
			for _, o := range obs {
				net.Forward(o.Image, o.State)
				net.Backward(grad)
			}
		}
		step()
		if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
			t.Fatalf("%s: Forward+Backward allocates %.1f times per step, want 0", h, allocs)
		}
	}
}

// TestMultiModalBackwardSkipsOnlyInputGradients: MultiModal.Backward stops
// each trunk at its first layer's parameter gradients; the parameter
// gradients must equal those of a full Backward through both trunks.
func TestMultiModalBackwardSkipsOnlyInputGradients(t *testing.T) {
	obs := gatherObs(t, 3)
	net, err := policy.NewTrainable(policy.Hyper{Layers: 4, Filters: 48}, policy.DefaultTrainable(), tensor.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	grad := tensor.New(policy.DefaultTrainable().Actions)
	grad.Data()[2] = -0.25
	v := net.Vision.Forward(obs[0].Image).Len() // vision share of the joint vector
	run := func(full bool) []*tensor.Tensor {
		net.ZeroGrads()
		for _, o := range obs {
			net.Forward(o.Image, o.State)
			if !full {
				net.Backward(grad)
				continue
			}
			jd := net.Head.Backward(grad).Data()
			net.Vision.Backward(tensor.FromSlice(append([]float64(nil), jd[:v]...), v))
			net.State.Backward(tensor.FromSlice(append([]float64(nil), jd[v:]...), len(jd)-v))
		}
		var gs []*tensor.Tensor
		for _, g := range net.Grads() {
			gs = append(gs, g.Clone())
		}
		return gs
	}
	skipped, full := run(false), run(true)
	for i := range full {
		if !sameBits(skipped[i].Data(), full[i].Data()) {
			t.Fatalf("parameter gradient %d differs when input gradients are skipped", i)
		}
	}
}

// TestForwardBatchConcurrentMatchesForward evaluates one frozen network
// from several goroutines at once, as the evaluation collector does; every
// output must match a per-sample Forward bit for bit (run with -race).
func TestForwardBatchConcurrentMatchesForward(t *testing.T) {
	obs := gatherObs(t, 12)
	net, err := policy.NewTrainable(policy.Hyper{Layers: 7, Filters: 48}, policy.DefaultTrainable(), tensor.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, len(obs))
	for i, o := range obs {
		want[i] = append([]float64(nil), net.Forward(o.Image, o.State).Data()...)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				var imgs, states []*tensor.Tensor
				var idx []int
				for i := w; i < len(obs); i += workers {
					imgs, states = append(imgs, obs[i].Image), append(states, obs[i].State)
					idx = append(idx, i)
				}
				for k, y := range net.ForwardBatch(imgs, states) {
					if !sameBits(y.Data(), want[idx[k]]) {
						t.Errorf("worker %d sample %d: ForwardBatch differs from Forward", w, idx[k])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
